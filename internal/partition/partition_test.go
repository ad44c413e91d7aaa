package partition

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// grid builds an nx x ny 2D lattice graph with unit weights and ncon
// constraints; when ncon == 2, vertices in the left half get a second
// weight of 1 (mimicking contact nodes concentrated in a region).
func grid(nx, ny, ncon int) *graph.Graph {
	b := graph.NewBuilder(nx*ny, ncon)
	id := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			b.SetWeight(id(x, y), 0, 1)
			if ncon >= 2 && x < nx/3 {
				b.SetWeight(id(x, y), 1, 1)
			}
			if x+1 < nx {
				b.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < ny {
				b.AddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return b.Build()
}

// serialCutoff, as kwayAt's cutoff, keeps every bisection on the
// calling goroutine: the strictly serial recursion.
const serialCutoff = math.MaxInt

// kwayAt runs KWay with parallelRBCutoff set to cutoff and restores
// the package default before it returns.
func kwayAt(ctx context.Context, g *graph.Graph, opt Options, cutoff int) ([]int32, error) {
	saved := parallelRBCutoff
	parallelRBCutoff = cutoff
	defer func() { parallelRBCutoff = saved }()
	return KWay(ctx, g, opt)
}

func checkPartition(t *testing.T, g *graph.Graph, labels []int32, k int, eps float64) {
	t.Helper()
	sizes := make([]int, k)
	for v, l := range labels {
		if l < 0 || int(l) >= k {
			t.Fatalf("vertex %d has label %d out of [0,%d)", v, l, k)
		}
		sizes[l]++
	}
	for p, s := range sizes {
		if s == 0 {
			t.Errorf("partition %d empty", p)
		}
	}
	imb := LoadImbalances(g, labels, k)
	for j, x := range imb {
		if x > 1+eps {
			t.Errorf("constraint %d imbalance %.4f > %.4f", j, x, 1+eps)
		}
	}
}

// TestPartitionDeterministicAcrossRBCutoff: recursive bisection spawns
// concurrent branches only above parallelRBCutoff; the labels for a
// fixed seed must be identical whether the graph is partitioned above
// the cutoff (concurrent branches) or with the cutoff raised out of
// reach (strictly serial recursion), and stable across repeated
// concurrent runs. A low cutoff also forks inside forked subtrees, so
// workspaces created for forked chains fork chains of their own.
func TestPartitionDeterministicAcrossRBCutoff(t *testing.T) {
	// 135*135 = 18225 vertices > 1<<14, so the root split runs its
	// branches concurrently at the default cutoff.
	g := grid(135, 135, 2)
	if g.NV() <= parallelRBCutoff {
		t.Fatalf("test graph too small: %d vertices, cutoff %d", g.NV(), parallelRBCutoff)
	}
	opt := Options{K: 8, Seed: 42, Imbalance: 0.05}

	parallel1, err := KWay(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	parallel2, err := KWay(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}

	serial, err := kwayAt(context.Background(), g, opt, serialCutoff)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := kwayAt(context.Background(), g, opt, 2048)
	if err != nil {
		t.Fatal(err)
	}

	for v := range serial {
		if parallel1[v] != parallel2[v] {
			t.Fatalf("vertex %d: concurrent runs disagree (%d vs %d)", v, parallel1[v], parallel2[v])
		}
		if parallel1[v] != serial[v] {
			t.Fatalf("vertex %d: concurrent %d != serial %d", v, parallel1[v], serial[v])
		}
		if deep[v] != serial[v] {
			t.Fatalf("vertex %d: cutoff 2048 gives %d, serial %d", v, deep[v], serial[v])
		}
	}
	checkPartition(t, g, parallel1, opt.K, opt.Imbalance)
}

func TestPartitionSingle(t *testing.T) {
	g := grid(10, 10, 1)
	labels, err := KWay(context.Background(), g, Options{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		if l != 0 {
			t.Fatal("K=1 must label everything 0")
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	g := grid(4, 4, 1)
	if _, err := KWay(context.Background(), g, Options{K: 0}); err == nil {
		t.Error("accepted K=0")
	}
}

func TestPartitionGridSingleConstraint(t *testing.T) {
	g := grid(40, 40, 1)
	for _, k := range []int{2, 4, 7, 16} {
		labels, err := KWay(context.Background(), g, Options{K: k, Seed: 42, Imbalance: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, g, labels, k, 0.06)
		cut := EdgeCut(g, labels)
		// A 40x40 grid has 3120 edges; a decent k-way cut is far below
		// a random partition's expected cut (~3120*(1-1/k)).
		if cut > 1200 {
			t.Errorf("k=%d: cut %d too high", k, cut)
		}
		t.Logf("k=%d cut=%d imb=%v", k, cut, LoadImbalances(g, labels, k))
	}
}

func TestPartitionMultiConstraint(t *testing.T) {
	g := grid(40, 40, 2)
	for _, k := range []int{4, 8} {
		labels, err := KWay(context.Background(), g, Options{K: k, Seed: 7, Imbalance: 0.08})
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, g, labels, k, 0.10)
		t.Logf("k=%d cut=%d imb=%v", k, EdgeCut(g, labels), LoadImbalances(g, labels, k))
	}
}

func TestPartitionDeterminism(t *testing.T) {
	g := grid(30, 30, 2)
	l1, err := KWay(context.Background(), g, Options{K: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := KWay(context.Background(), g, Options{K: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for v := range l1 {
		if l1[v] != l2[v] {
			t.Fatal("same seed gave different partitions")
		}
	}
}

func TestPartitionDisconnected(t *testing.T) {
	// Two disjoint grids: partitioner must still balance.
	b := graph.NewBuilder(200, 1)
	for v := 0; v < 200; v++ {
		b.SetWeight(v, 0, 1)
	}
	id := func(c, x, y int) int { return c*100 + y*10 + x }
	for c := 0; c < 2; c++ {
		for y := 0; y < 10; y++ {
			for x := 0; x < 10; x++ {
				if x+1 < 10 {
					b.AddEdge(id(c, x, y), id(c, x+1, y), 1)
				}
				if y+1 < 10 {
					b.AddEdge(id(c, x, y), id(c, x, y+1), 1)
				}
			}
		}
	}
	g := b.Build()
	labels, err := KWay(context.Background(), g, Options{K: 4, Seed: 3, Imbalance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, labels, 4, 0.10)
}

func TestPartitionTinyGraph(t *testing.T) {
	// k close to n.
	g := grid(3, 3, 1)
	labels, err := KWay(context.Background(), g, Options{K: 4, Seed: 2, Imbalance: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]int{}
	for _, l := range labels {
		seen[l]++
	}
	if len(seen) != 4 {
		t.Errorf("9 vertices into 4 parts used %d parts", len(seen))
	}
}

func TestRefineKWayImprovesRandomLabels(t *testing.T) {
	g := grid(30, 30, 1)
	k := 5
	rng := rand.New(rand.NewSource(9))
	labels := make([]int32, g.NV())
	for v := range labels {
		labels[v] = int32(rng.Intn(k))
	}
	before := EdgeCut(g, labels)
	RefineKWay(g, labels, Options{K: k, Seed: 1, Imbalance: 0.05})
	after := EdgeCut(g, labels)
	if after >= before/2 {
		t.Errorf("refinement only improved cut %d -> %d", before, after)
	}
	checkPartition(t, g, labels, k, 0.08)
}

func TestRefineKWayRespectsStructure(t *testing.T) {
	// Refinement of an already-good partition must not blow it up.
	g := grid(20, 20, 1)
	labels := make([]int32, g.NV())
	for v := range labels {
		if v%20 >= 10 {
			labels[v] = 1
		}
	}
	before := EdgeCut(g, labels) // vertical split: cut = 20
	RefineKWay(g, labels, Options{K: 2, Seed: 1, Imbalance: 0.05})
	after := EdgeCut(g, labels)
	if after > before {
		t.Errorf("refinement worsened an optimal cut: %d -> %d", before, after)
	}
}

func TestRefineKWayBalancesHeavyRegions(t *testing.T) {
	// All vertices initially in partition 0: the balancer must spread
	// them out.
	g := grid(16, 16, 1)
	labels := make([]int32, g.NV())
	RefineKWay(g, labels, Options{K: 4, Seed: 1, Imbalance: 0.05})
	imb := LoadImbalances(g, labels, 4)
	if imb[0] > 1.25 {
		t.Errorf("balancer left imbalance %v", imb)
	}
}

func TestPartitionZeroSecondConstraint(t *testing.T) {
	// Second constraint entirely zero (no contact nodes): must not
	// divide by zero and must balance the first constraint.
	b := graph.NewBuilder(100, 2)
	for v := 0; v < 100; v++ {
		b.SetWeight(v, 0, 1)
	}
	for v := 0; v+1 < 100; v++ {
		b.AddEdge(v, v+1, 1)
	}
	g := b.Build()
	labels, err := KWay(context.Background(), g, Options{K: 4, Seed: 11, Imbalance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	imb := LoadImbalances(g, labels, 4)
	if imb[0] > 1.1 {
		t.Errorf("imbalance %v", imb)
	}
}

func TestEdgeCutKnown(t *testing.T) {
	g := grid(4, 1, 1) // path of 4
	labels := []int32{0, 0, 1, 1}
	if cut := EdgeCut(g, labels); cut != 1 {
		t.Errorf("cut = %d, want 1", cut)
	}
	labels = []int32{0, 1, 0, 1}
	if cut := EdgeCut(g, labels); cut != 3 {
		t.Errorf("cut = %d, want 3", cut)
	}
}

func TestLoadImbalancesKnown(t *testing.T) {
	g := grid(4, 1, 1)
	imb := LoadImbalances(g, []int32{0, 0, 0, 1}, 2)
	if imb[0] != 1.5 {
		t.Errorf("imbalance = %v, want 1.5", imb)
	}
}

func TestCoarsenPreservesTotals(t *testing.T) {
	g := grid(25, 25, 2)
	rng := rand.New(rand.NewSource(1))
	levels := coarsen(context.Background(), g, 50, rng, newWorkspace(g.NV()))
	if len(levels) < 2 {
		t.Fatal("no coarsening happened")
	}
	want := g.TotalWeights()
	for i, lv := range levels {
		got := lv.g.TotalWeights()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("level %d: total weight %v, want %v", i, got, want)
			}
		}
		if err := lv.g.Validate(); err != nil {
			t.Fatalf("level %d: %v", i, err)
		}
	}
	last := levels[len(levels)-1].g
	if last.NV() > g.NV()/2 {
		t.Errorf("coarsest graph still has %d of %d vertices", last.NV(), g.NV())
	}
}

// rb's split of one side of a bisection is that side's induced
// subgraph, with the side's original vertex ids in ascending order.
func TestInducedSubgraph(t *testing.T) {
	g := grid(4, 4, 1)
	where, ids := make([]int8, g.NV()), make([]int32, g.NV())
	for v := range where {
		where[v], ids[v] = 1, int32(100+v)
	}
	for _, v := range []int{0, 1, 4, 5} { // 2x2 corner block
		where[v] = 0
	}
	var sub graph.Graph
	subIDs := split(&sub, nil, g, ids, where, 0, newWorkspace(g.NV()))
	if sub.NV() != 4 || sub.NE() != 4 {
		t.Fatalf("induced NV=%d NE=%d, want 4, 4", sub.NV(), sub.NE())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := []int32{100, 101, 104, 105}; !slices.Equal(subIDs, want) {
		t.Fatalf("ids %v, want %v", subIDs, want)
	}
}

func TestBisectionStateMachine(t *testing.T) {
	g := grid(6, 1, 1)
	b := newBisection(g, 0.5, 0.05, newWorkspace(g.NV()))
	if b.side[0][0] != 6 || b.side[1][0] != 0 {
		t.Fatal("initial state wrong")
	}
	b.move(5)
	b.move(4)
	b.move(3)
	if b.side[0][0] != 3 || b.side[1][0] != 3 {
		t.Fatalf("after moves: %v", b.side)
	}
	if b.cut != 1 {
		t.Fatalf("cut = %d, want 1", b.cut)
	}
	if !b.feasible() {
		t.Error("perfect split not feasible")
	}
	if g := b.gain[3]; g != -1+2 { // moving 3 back: edge to 2 external (1), edge to 4 internal (1) -> gain 0
		t.Logf("gain(3) = %d", g)
	}
}

// Property: Partition always returns valid labels with every partition
// nonempty (when nv >= k) on random connected graphs.
func TestQuickPartitionValidity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 20 + r.Intn(200)
		k := 2 + r.Intn(6)
		b := graph.NewBuilder(nv, 1+r.Intn(2))
		for v := 0; v < nv; v++ {
			b.SetWeight(v, 0, 1)
		}
		// Random spanning chain + extra edges keeps it connected.
		for v := 1; v < nv; v++ {
			b.AddEdge(v, r.Intn(v), 1)
		}
		for i := 0; i < nv; i++ {
			b.AddEdge(r.Intn(nv), r.Intn(nv), 1)
		}
		g := b.Build()
		labels, err := KWay(context.Background(), g, Options{K: k, Seed: seed, Imbalance: 0.1})
		if err != nil {
			return false
		}
		seen := make([]bool, k)
		for _, l := range labels {
			if l < 0 || int(l) >= k {
				return false
			}
			seen[l] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: RefineKWay never invalidates labels and never increases
// the edge cut of an already balanced partition by more than its
// balancing slack requires.
func TestQuickRefineSafety(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 20 + r.Intn(100)
		k := 2 + r.Intn(4)
		b := graph.NewBuilder(nv, 1)
		for v := 0; v < nv; v++ {
			b.SetWeight(v, 0, 1)
		}
		for v := 1; v < nv; v++ {
			b.AddEdge(v, r.Intn(v), 1)
		}
		g := b.Build()
		labels := make([]int32, nv)
		for v := range labels {
			labels[v] = int32(r.Intn(k))
		}
		before := EdgeCut(g, labels)
		RefineKWay(g, labels, Options{K: k, Seed: seed, Imbalance: 0.1})
		after := EdgeCut(g, labels)
		for _, l := range labels {
			if l < 0 || int(l) >= k {
				return false
			}
		}
		// Refinement of random labels should improve (or at worst keep)
		// the cut: allow a small balancing allowance.
		return after <= before+int64(nv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
