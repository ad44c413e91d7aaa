package partition

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestRepartitionNoopWhenBalanced(t *testing.T) {
	g := grid(20, 20, 1)
	labels, err := KWay(context.Background(), g, Options{K: 4, Seed: 1, Imbalance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int32(nil), labels...)
	if err := Repartition(g, labels, Options{K: 4, Seed: 1, Imbalance: 0.05}); err != nil {
		t.Fatal(err)
	}
	// A balanced good partition should barely move.
	if migrated := g.NV() - Overlap(before, labels); migrated > g.NV()/10 {
		t.Errorf("repartition moved %d of %d vertices of an already-good partition", migrated, g.NV())
	}
	if cutAfter, cutBefore := EdgeCut(g, labels), EdgeCut(g, before); cutAfter > cutBefore+cutBefore/5 {
		t.Errorf("repartition worsened cut %d -> %d", cutBefore, cutAfter)
	}
}

func TestRepartitionRestoresBalance(t *testing.T) {
	g := grid(24, 24, 1)
	k := 4
	// Heavily skewed initial labels: three quarters in partition 0.
	labels := make([]int32, g.NV())
	for v := range labels {
		if v%4 == 3 {
			labels[v] = int32(1 + v%3)
		}
	}
	before := append([]int32(nil), labels...)
	if err := Repartition(g, labels, Options{K: k, Seed: 2, Imbalance: 0.05}); err != nil {
		t.Fatal(err)
	}
	migrated := g.NV() - Overlap(before, labels)
	imb := LoadImbalances(g, labels, k)
	if imb[0] > 1.10 {
		t.Errorf("imbalance %v after repartition", imb)
	}
	if migrated == 0 {
		t.Error("no migration despite skew")
	}
	// Migration must be bounded: far less than total (a fresh
	// partition would relabel nearly everything).
	if migrated > g.NV()*3/4 {
		t.Errorf("migrated %d of %d vertices", migrated, g.NV())
	}
}

func TestRepartitionMultiConstraint(t *testing.T) {
	g := grid(24, 24, 2)
	k := 4
	labels, err := KWay(context.Background(), g, Options{K: k, Seed: 3, Imbalance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: move one partition's vertices into another.
	for v := range labels {
		if labels[v] == 3 {
			labels[v] = 0
		}
	}
	if err := Repartition(g, labels, Options{K: k, Seed: 3, Imbalance: 0.08}); err != nil {
		t.Fatal(err)
	}
	imb := LoadImbalances(g, labels, k)
	for j, x := range imb {
		if x > 1.35 {
			t.Errorf("constraint %d imbalance %v", j, x)
		}
	}
}

// TestRepartitionMigrationPenalty checks the migration economics of
// Repartition's refinement phase: from the same balanced state and
// RNG, passes charging a prohibitive migration penalty never move a
// vertex away from its original partition and keep at least as many
// vertices home as passes charging none, and both keep the balance.
func TestRepartitionMigrationPenalty(t *testing.T) {
	g := grid(30, 30, 1)
	k := 5
	old := make([]int32, g.NV())
	r := rand.New(rand.NewSource(4))
	for v := range old {
		old[v] = int32(r.Intn(2)) // only partitions 0,1 used
	}
	refine := func(penalty int64) (balanced, refined []int32) {
		labels := append([]int32(nil), old...)
		s := newKwayState(g, labels, k, 0.05)
		rng := rand.New(rand.NewSource(4))
		s.balance(rng)
		balanced = append([]int32(nil), labels...)
		for it := 0; it < refineIters; it++ {
			if s.migrationAwarePass(rng, old, penalty) == 0 {
				break
			}
		}
		return balanced, labels
	}
	balanced, costly := refine(1 << 40)
	_, free := refine(0)
	for v := range old {
		if balanced[v] == old[v] && costly[v] != old[v] {
			t.Fatalf("vertex %d left its original partition %d under a prohibitive penalty", v, old[v])
		}
	}
	if hc, hf := Overlap(old, costly), Overlap(old, free); hc < hf {
		t.Errorf("prohibitive penalty kept %d vertices home, no penalty %d", hc, hf)
	}
	for name, labels := range map[string][]int32{"costly": costly, "free": free} {
		if imb := LoadImbalances(g, labels, k); imb[0] > 1.15 {
			t.Errorf("%s-migration imbalance %v", name, imb)
		}
	}
	if p := migrationPenalty(g); p != 1 {
		t.Errorf("unit-weight grid migration penalty = %d, want 1", p)
	}
}

func TestRepartitionK1(t *testing.T) {
	g := grid(5, 5, 1)
	labels := make([]int32, g.NV())
	if err := Repartition(g, labels, Options{K: 1}); err != nil || Overlap(labels, make([]int32, g.NV())) != g.NV() {
		t.Errorf("K=1: labels %v, err=%v", labels, err)
	}
}

func TestRepartitionValidates(t *testing.T) {
	g := grid(5, 5, 1)
	labels := make([]int32, g.NV())
	if err := Repartition(g, labels, Options{K: 0}); err == nil {
		t.Error("accepted K=0")
	}
}

func TestOverlap(t *testing.T) {
	if got := Overlap([]int32{1, 2, 3}, []int32{1, 0, 3}); got != 2 {
		t.Errorf("Overlap = %d", got)
	}
	if got := Overlap(nil, nil); got != 0 {
		t.Errorf("Overlap(nil) = %d", got)
	}
}

func TestRepartitionAfterTopologyChange(t *testing.T) {
	// Simulate erosion: partition a grid, delete a block of vertices,
	// repartition the survivors' induced subgraph with carried labels.
	g := grid(20, 20, 1)
	k := 4
	labels, err := KWay(context.Background(), g, Options{K: k, Seed: 5, Imbalance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	eroded := make([]int8, g.NV())
	var carried []int32
	for v := 0; v < g.NV(); v++ {
		x, y := v%20, v/20
		if x >= 8 && x < 12 && y >= 8 && y < 12 {
			eroded[v] = 1
			continue
		}
		carried = append(carried, labels[v])
	}
	sub := new(graph.Graph)
	g.SplitInto(sub, eroded, 0, new(graph.Scratch))
	before := append([]int32(nil), carried...)
	if err := Repartition(sub, carried, Options{K: k, Seed: 5, Imbalance: 0.05}); err != nil {
		t.Fatal(err)
	}
	imb := LoadImbalances(sub, carried, k)
	if imb[0] > 1.12 {
		t.Errorf("post-erosion imbalance %v (migrated %d)", imb, sub.NV()-Overlap(before, carried))
	}
}

func TestRepartitionPreservesLabelRange(t *testing.T) {
	g := grid(15, 15, 1)
	labels := make([]int32, g.NV())
	r := rand.New(rand.NewSource(6))
	for v := range labels {
		labels[v] = int32(r.Intn(6))
	}
	if err := Repartition(g, labels, Options{K: 6, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		if l < 0 || l >= 6 {
			t.Fatalf("label %d out of range", l)
		}
	}
	_ = graph.Graph{}
}
