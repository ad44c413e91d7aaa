package partition

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// This file is the partition-invariant property suite: every partition
// the package produces, on any input, must satisfy
//
//  1. len(labels) == NV and every label lies in [0, k);
//  2. every one of the k parts is non-empty whenever the graph has at
//     least k vertices (each with positive first-constraint weight);
//  3. the edge cut reported by EdgeCut equals an independently
//     recomputed cut (different traversal, both edge directions);
//  4. every constraint's load is within the Options tolerance plus one
//     vertex of granularity slack — or the violation is flagged, since
//     the balancer is allowed to give up on infeasible instances.
//
// The same checks back the native fuzz target FuzzKWay.

// recomputeCut is the independent edge-cut oracle: it walks both
// directions of every edge and halves the sum, unlike EdgeCut which
// counts each edge once at its smaller endpoint (and runs chunked in
// parallel above a cutoff).
func recomputeCut(g *graph.Graph, labels []int32) int64 {
	var twice int64
	for v := 0; v < g.NV(); v++ {
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		for i, u := range adj {
			if labels[u] != labels[v] {
				twice += int64(wgt[i])
			}
		}
	}
	return twice / 2
}

// maxVertexWeight returns, per constraint, the heaviest single vertex:
// the granularity below which no partitioner can balance.
func maxVertexWeight(g *graph.Graph) []int64 {
	m := make([]int64, g.NCon)
	for v := 0; v < g.NV(); v++ {
		for j, wj := range g.Weights(v) {
			if int64(wj) > m[j] {
				m[j] = int64(wj)
			}
		}
	}
	return m
}

// checkInvariants asserts invariants 1-3 and returns the list of
// flagged balance violations (invariant 4) instead of failing on
// them; callers decide how strict to be.
func checkInvariants(t testing.TB, g *graph.Graph, labels []int32, k int, eps float64) []string {
	t.Helper()
	if len(labels) != g.NV() {
		t.Fatalf("%d labels for %d vertices", len(labels), g.NV())
	}
	sizes := make([]int, k)
	for v, l := range labels {
		if l < 0 || int(l) >= k {
			t.Fatalf("vertex %d has label %d outside [0,%d)", v, l, k)
		}
		sizes[l]++
	}
	if g.NV() >= k {
		for p, s := range sizes {
			if s == 0 {
				t.Fatalf("partition %d of %d empty on a %d-vertex graph", p, k, g.NV())
			}
		}
	}
	if got, want := EdgeCut(g, labels), recomputeCut(g, labels); got != want {
		t.Fatalf("EdgeCut reports %d, independent recomputation says %d", got, want)
	}

	var flagged []string
	total := g.TotalWeights()
	caps := flagCaps(g, k, eps)
	pw, _ := accumPartitionWeights(g, labels, k)
	for j := 0; j < g.NCon; j++ {
		if total[j] == 0 {
			continue
		}
		for p := 0; p < k; p++ {
			if float64(pw[p][j]) > caps[j] {
				flagged = append(flagged, fmt.Sprintf(
					"constraint %d partition %d: weight %d > cap %.1f (avg %.1f, eps %.2f)",
					j, p, pw[p][j], caps[j], float64(total[j])/float64(k), eps))
			}
		}
	}
	return flagged
}

// flagCaps returns invariant 4's per-constraint cap: the balancer's own
// target plus one vertex of granularity. The targets mirror
// newKwayState (pigeonhole floor included), so every part the balancer
// adds weight to stays strictly below its flag cap.
func flagCaps(g *graph.Graph, k int, eps float64) []float64 {
	total := g.TotalWeights()
	maxvw := maxVertexWeight(g)
	caps := make([]float64, g.NCon)
	for j := range caps {
		caps[j] = (1 + eps) * float64(total[j]) / float64(k)
		if ceil := float64((total[j] + int64(k) - 1) / int64(k)); caps[j] < ceil {
			caps[j] = ceil
		}
		caps[j] += float64(maxvw[j])
	}
	return caps
}

// randConnGraph builds a random connected graph of 15 to 264 vertices
// and one to three constraints, and a k to partition it into.
func randConnGraph(r *rand.Rand) (*graph.Graph, int) {
	nv := 15 + r.Intn(250)
	ncon := 1 + r.Intn(3)
	return randConnGraphOf(r, nv, ncon), 2 + r.Intn(10)
}

// randConnGraphOf builds a random connected graph of nv vertices:
// spanning chain with random attachment plus extra random edges, first
// weights 1 to 3, and random sparse extra constraints.
func randConnGraphOf(r *rand.Rand, nv, ncon int) *graph.Graph {
	b := graph.NewBuilder(nv, ncon)
	for v := 0; v < nv; v++ {
		b.SetWeight(v, 0, 1+int32(r.Intn(3)))
		for j := 1; j < ncon; j++ {
			if r.Intn(3) == 0 {
				b.SetWeight(v, j, int32(r.Intn(4)))
			}
		}
	}
	for v := 1; v < nv; v++ {
		b.AddEdge(v, r.Intn(v), 1+int32(r.Intn(4)))
	}
	for i := 0; i < nv; i++ {
		b.AddEdge(r.Intn(nv), r.Intn(nv), 1+int32(r.Intn(4)))
	}
	return b.Build()
}

// randClusterGraph builds a disconnected graph of several random
// cliques-of-grids, exercising partitions that must span components.
func randClusterGraph(r *rand.Rand) (*graph.Graph, int) {
	comps := 2 + r.Intn(3)
	size := 10 + r.Intn(40)
	nv := comps * size
	b := graph.NewBuilder(nv, 2)
	for v := 0; v < nv; v++ {
		b.SetWeight(v, 0, 1)
		if r.Intn(4) == 0 {
			b.SetWeight(v, 1, 1+int32(r.Intn(2)))
		}
	}
	for c := 0; c < comps; c++ {
		off := c * size
		for i := 1; i < size; i++ {
			b.AddEdge(off+i, off+r.Intn(i), 1)
		}
	}
	return b.Build(), 2 + r.Intn(6)
}

func TestInvariantsRandomConnectedGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	var flagged int
	const runs = 40
	for i := 0; i < runs; i++ {
		g, k := randConnGraph(r)
		eps := 0.03 + r.Float64()*0.12
		labels, err := KWay(context.Background(), g, Options{K: k, Seed: int64(i), Imbalance: eps})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if v := checkInvariants(t, g, labels, k, eps); len(v) > 0 {
			flagged++
			t.Logf("run %d (nv=%d k=%d eps=%.2f) flagged: %v", i, g.NV(), k, eps, v)
		}
	}
	// The balancer may give up on genuinely infeasible multi-constraint
	// instances, but that must stay the exception, not the rule.
	if flagged > runs/4 {
		t.Errorf("%d of %d runs violated balance beyond granularity slack", flagged, runs)
	}
}

func TestInvariantsRandomDisconnectedGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	var flagged int
	const runs = 25
	for i := 0; i < runs; i++ {
		g, k := randClusterGraph(r)
		labels, err := KWay(context.Background(), g, Options{K: k, Seed: int64(i), Imbalance: 0.1})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if v := checkInvariants(t, g, labels, k, 0.1); len(v) > 0 {
			flagged++
			t.Logf("run %d (nv=%d k=%d) flagged: %v", i, g.NV(), k, v)
		}
	}
	if flagged > runs/4 {
		t.Errorf("%d of %d runs violated balance beyond granularity slack", flagged, runs)
	}
}

// TestInvariantsEmptyPartRepair pins the fillEmpty guarantee directly:
// a labeling that leaves parts empty must come out of RefineKWay with
// every part populated.
func TestInvariantsEmptyPartRepair(t *testing.T) {
	g := grid(12, 12, 1)
	labels := make([]int32, g.NV()) // everything in part 0, parts 1..5 empty
	RefineKWay(g, labels, Options{K: 6, Seed: 1, Imbalance: 0.05})
	seen := make([]bool, 6)
	for _, l := range labels {
		seen[l] = true
	}
	for p, s := range seen {
		if !s {
			t.Fatalf("partition %d still empty after RefineKWay", p)
		}
	}
}

// TestKWaySerialParallelIdentical is the determinism regression test:
// for 3 seeds and k in {2,4,8,16}, on graphs both below and above the
// parallel cutoff, the strictly serial recursion (serialCutoff)
// and the fully parallel one (every split forked, plus a 1-worker
// pool as a third leg) must produce byte-identical labels.
func TestKWaySerialParallelIdentical(t *testing.T) {
	graphs := map[string]*graph.Graph{
		// 144 vertices: below the default 1<<14 cutoff (the default
		// configuration runs it serially); the forced cutoff of 32
		// still parallelizes it here.
		"small-graph": grid(12, 12, 2),
		// 2025 vertices: a deeper recursion tree, forked at every
		// level under the forced cutoff.
		"large-graph": grid(45, 45, 2),
	}
	for name, g := range graphs {
		for _, seed := range []int64{1, 7, 42} {
			for _, k := range []int{2, 4, 8, 16} {
				base := Options{K: k, Seed: seed, Imbalance: 0.05}

				serial, err := kwayAt(context.Background(), g, base, serialCutoff)
				if err != nil {
					t.Fatal(err)
				}

				// A cutoff of 32 forks deep into the tree.
				par, err := kwayAt(context.Background(), g, base, 32)
				if err != nil {
					t.Fatal(err)
				}

				oneOpt := base
				oneOpt.Workers = 1
				one, err := kwayAt(context.Background(), g, oneOpt, 32)
				if err != nil {
					t.Fatal(err)
				}

				for v := range serial {
					if par[v] != serial[v] {
						t.Fatalf("%s seed=%d k=%d vertex %d: parallel %d != serial %d",
							name, seed, k, v, par[v], serial[v])
					}
					if one[v] != serial[v] {
						t.Fatalf("%s seed=%d k=%d vertex %d: 1-worker %d != serial %d",
							name, seed, k, v, one[v], serial[v])
					}
				}
			}
		}
	}
}

// TestParallelEvalMatchesSerial pins the chunked evaluation helpers
// (EdgeCut, LoadImbalances, accumPartitionWeights) to the serial path
// by toggling the cutoff on the same inputs.
func TestParallelEvalMatchesSerial(t *testing.T) {
	g := grid(60, 60, 2)
	r := rand.New(rand.NewSource(5))
	k := 9
	labels := make([]int32, g.NV())
	for v := range labels {
		labels[v] = int32(r.Intn(k))
	}
	saved := parallelEvalCutoff
	defer func() { parallelEvalCutoff = saved }()

	parallelEvalCutoff = 1 << 30 // serial
	cutS := EdgeCut(g, labels)
	imbS := LoadImbalances(g, labels, k)
	pwS, cntS := accumPartitionWeights(g, labels, k)

	parallelEvalCutoff = 1 // chunked
	cutP := EdgeCut(g, labels)
	imbP := LoadImbalances(g, labels, k)
	pwP, cntP := accumPartitionWeights(g, labels, k)

	if cutS != cutP {
		t.Errorf("EdgeCut: serial %d, parallel %d", cutS, cutP)
	}
	for j := range imbS {
		if imbS[j] != imbP[j] {
			t.Errorf("LoadImbalances[%d]: serial %v, parallel %v", j, imbS[j], imbP[j])
		}
	}
	for p := 0; p < k; p++ {
		if cntS[p] != cntP[p] {
			t.Errorf("cnt[%d]: serial %d, parallel %d", p, cntS[p], cntP[p])
		}
		for j := range pwS[p] {
			if pwS[p][j] != pwP[p][j] {
				t.Errorf("pw[%d][%d]: serial %d, parallel %d", p, j, pwS[p][j], pwP[p][j])
			}
		}
	}
}
