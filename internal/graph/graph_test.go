package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// path builds the path graph 0-1-2-...-n-1 with unit weights.
func path(n int) *Graph {
	b := NewBuilder(n, 1)
	for v := 0; v < n; v++ {
		b.SetWeight(v, 0, 1)
	}
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1, 1)
	}
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	g := path(4)
	if g.NV() != 4 || g.NE() != 3 {
		t.Fatalf("NV=%d NE=%d, want 4, 3", g.NV(), g.NE())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Errorf("degrees = %d, %d", g.Degree(0), g.Degree(1))
	}
	if g.TotalEdgeWeight() != 3 {
		t.Errorf("TotalEdgeWeight = %d", g.TotalEdgeWeight())
	}
}

func TestBuilderDedupAndSelfLoop(t *testing.T) {
	b := NewBuilder(3, 1)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 0, 3) // reverse direction merges
	b.AddEdge(1, 1, 7) // self loop dropped
	b.AddEdge(1, 2, 1)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NE() != 2 {
		t.Fatalf("NE = %d, want 2", g.NE())
	}
	// Find the merged weight of {0,1}.
	found := false
	for i, u := range g.Neighbors(0) {
		if u == 1 {
			found = true
			if w := g.EdgeWeights(0)[i]; w != 5 {
				t.Errorf("merged weight = %d, want 5", w)
			}
		}
	}
	if !found {
		t.Fatal("edge {0,1} missing")
	}
}

func TestWeightsVector(t *testing.T) {
	b := NewBuilder(2, 3)
	b.SetWeights(0, []int32{1, 2, 3})
	b.SetWeight(1, 2, 9)
	g := b.Build()
	if g.Weight(0, 1) != 2 || g.Weight(1, 2) != 9 || g.Weight(1, 0) != 0 {
		t.Errorf("weights wrong: %v", g.VWgt)
	}
	tot := g.TotalWeights()
	if tot[0] != 1 || tot[1] != 2 || tot[2] != 12 {
		t.Errorf("TotalWeights = %v", tot)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6, 1)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	g := b.Build()
	comp, n := g.Components()
	if n != 3 {
		t.Fatalf("n components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Error("3,4 should share a component")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Error("5 should be isolated")
	}
}

func TestCollapsePath(t *testing.T) {
	g := path(6)
	// Groups: {0,1,2} and {3,4,5}. One cut edge {2,3}.
	label := []int32{0, 0, 0, 1, 1, 1}
	q := g.Collapse(label, 2)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.NV() != 2 || q.NE() != 1 {
		t.Fatalf("quotient NV=%d NE=%d, want 2, 1", q.NV(), q.NE())
	}
	if q.Weight(0, 0) != 3 || q.Weight(1, 0) != 3 {
		t.Errorf("quotient weights %v", q.VWgt)
	}
	if q.EdgeWeights(0)[0] != 1 {
		t.Errorf("quotient edge weight = %d", q.EdgeWeights(0)[0])
	}
}

func TestCollapseParallelEdgesSum(t *testing.T) {
	// Two groups joined by two unit edges -> one quotient edge weight 2.
	b := NewBuilder(4, 1)
	for v := 0; v < 4; v++ {
		b.SetWeight(v, 0, 1)
	}
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(0, 1, 5) // internal to group 0
	g := b.Build()
	q := g.Collapse([]int32{0, 0, 1, 1}, 2)
	if q.NE() != 1 {
		t.Fatalf("NE = %d, want 1", q.NE())
	}
	if w := q.EdgeWeights(0)[0]; w != 2 {
		t.Errorf("quotient edge weight = %d, want 2", w)
	}
}

func TestCollapseEmptyGroup(t *testing.T) {
	g := path(3)
	q := g.Collapse([]int32{0, 0, 2}, 3) // group 1 empty
	if q.NV() != 3 {
		t.Fatalf("NV = %d", q.NV())
	}
	if q.Weight(1, 0) != 0 || q.Degree(1) != 0 {
		t.Error("empty group should be an isolated zero-weight vertex")
	}
}

func randomGraph(r *rand.Rand, nv, ncon, ne int) *Graph {
	b := NewBuilder(nv, ncon)
	for v := 0; v < nv; v++ {
		for j := 0; j < ncon; j++ {
			b.SetWeight(v, j, int32(1+r.Intn(5)))
		}
	}
	for i := 0; i < ne; i++ {
		b.AddEdge(r.Intn(nv), r.Intn(nv), int32(1+r.Intn(4)))
	}
	return b.Build()
}

// Property: built graphs always satisfy Validate.
func TestQuickBuildValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(60)
		g := randomGraph(r, nv, 1+r.Intn(3), r.Intn(4*nv))
		return g.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Collapse conserves total vertex weight and total edge weight
// splits into (quotient edges) + (internal edges).
func TestQuickCollapseConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(50)
		g := randomGraph(r, nv, 2, 3*nv)
		ngroups := 1 + r.Intn(nv)
		label := make([]int32, nv)
		for v := range label {
			label[v] = int32(r.Intn(ngroups))
		}
		q := g.Collapse(label, ngroups)
		if q.Validate() != nil {
			return false
		}
		gt, qt := g.TotalWeights(), q.TotalWeights()
		for j := range gt {
			if gt[j] != qt[j] {
				return false
			}
		}
		// Quotient edge weight == weight of edges cut by the labeling.
		var cut int64
		for v := 0; v < nv; v++ {
			adj, wgt := g.Neighbors(v), g.EdgeWeights(v)
			for i, u := range adj {
				if int(u) > v && label[u] != label[v] {
					cut += int64(wgt[i])
				}
			}
		}
		return q.TotalEdgeWeight() == cut
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: adjacency symmetry — u in N(v) iff v in N(u), with equal weight.
func TestQuickSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(40)
		g := randomGraph(r, nv, 1, 3*nv)
		for v := 0; v < nv; v++ {
			adj, wgt := g.Neighbors(v), g.EdgeWeights(v)
			for i, u := range adj {
				found := false
				radj, rwgt := g.Neighbors(int(u)), g.EdgeWeights(int(u))
				for j, w := range radj {
					if int(w) == v {
						found = rwgt[j] == wgt[i]
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := path(3)
	// Corrupt one direction's weight.
	g.AdjWgt[0] = 42
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted asymmetric weights")
	}
}

// An offset in the middle of Xadj past the end of Adj, with framed
// endpoints, is an error and not an out-of-range panic in the row scan.
func TestValidateCatchesRowPastAdj(t *testing.T) {
	g := &Graph{NCon: 1, Xadj: []int32{0, 10, 10, 10, 3}, Adj: []int32{1, 2, 3}, AdjWgt: []int32{1, 1, 1}, VWgt: make([]int32, 4)}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted a row running past Adj")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0, 1).Build()
	if g.NV() != 0 || g.NE() != 0 {
		t.Fatal("empty graph wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	_, n := g.Components()
	if n != 0 {
		t.Errorf("components = %d", n)
	}
}
