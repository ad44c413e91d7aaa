package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// refCollapse is the Builder-based quotient Collapse replaced: every
// inter-group edge is added once and Build merges the parallel ones.
func refCollapse(g *Graph, label []int32, ngroups int) *Graph {
	b := NewBuilder(ngroups, g.NCon)
	for v := 0; v < g.NV(); v++ {
		lv := label[v]
		for j := 0; j < g.NCon; j++ {
			b.vwgt[int(lv)*g.NCon+j] += g.Weight(v, j)
		}
		wgt := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if int(u) > v && label[u] != lv {
				b.AddEdge(int(lv), int(label[u]), wgt[i])
			}
		}
	}
	return b.Build()
}

// refInduce is the Builder-based Induce the direct row filter replaced.
func refInduce(g *Graph, vs []int32) *Graph {
	newIdx := make([]int32, g.NV())
	for i := range newIdx {
		newIdx[i] = -1
	}
	for i, v := range vs {
		newIdx[v] = int32(i)
	}
	b := NewBuilder(len(vs), g.NCon)
	for i, v := range vs {
		b.SetWeights(i, g.Weights(int(v)))
		wgt := g.EdgeWeights(int(v))
		for j, u := range g.Neighbors(int(v)) {
			if u > v && newIdx[u] >= 0 {
				b.AddEdge(i, int(newIdx[u]), wgt[j])
			}
		}
	}
	return b.Build()
}

// sameGraph compares two graphs field by field; an empty slice equals
// a nil one.
func sameGraph(a, b *Graph) bool {
	return a.NCon == b.NCon && slices.Equal(a.Xadj, b.Xadj) && slices.Equal(a.Adj, b.Adj) &&
		slices.Equal(a.AdjWgt, b.AdjWgt) && slices.Equal(a.VWgt, b.VWgt)
}

func checkCollapse(t testing.TB, g *Graph, label []int32, ngroups int) {
	t.Helper()
	got, want := g.Collapse(label, ngroups), refCollapse(g, label, ngroups)
	if err := got.Validate(); err != nil {
		t.Fatalf("Collapse: %v", err)
	}
	if !sameGraph(got, want) {
		t.Fatalf("Collapse differs from refCollapse (ngroups %d, label %v):\n got %+v\nwant %+v", ngroups, label, got, want)
	}
}

func checkInduce(t testing.TB, g *Graph, vs []int32) {
	t.Helper()
	got, want := g.Induce(vs), refInduce(g, vs)
	if err := got.Validate(); err != nil {
		t.Fatalf("Induce: %v", err)
	}
	if !sameGraph(got, want) {
		t.Fatalf("Induce differs from refInduce (vs %v):\n got %+v\nwant %+v", vs, got, want)
	}
}

// The random multigraphs have isolated vertices and, after merging,
// heavy parallel-edge sums; labels leave some groups empty and often
// put both ends of an edge in one group.
func TestCollapseMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		g := randomMultigraph(r).Build()
		ngroups := 1 + r.Intn(g.NV()+3)
		label := make([]int32, g.NV())
		for v := range label {
			label[v] = int32(r.Intn(ngroups))
		}
		checkCollapse(t, g, label, ngroups)
	}
}

func TestCollapseDegenerate(t *testing.T) {
	g := path(6)
	checkCollapse(t, g, make([]int32, 6), 1)                           // one group: no edges
	checkCollapse(t, g, []int32{0, 1, 2, 3, 4, 5}, 6)                  // identity
	checkCollapse(t, g, []int32{5, 4, 3, 2, 1, 0}, 9)                  // reversal, empty groups
	checkCollapse(t, NewBuilder(0, 2).Build(), []int32{}, 3)           // empty graph
	checkCollapse(t, NewBuilder(4, 1).Build(), []int32{1, 1, 0, 2}, 3) // no edges
}

// Induce must match the reference for ascending vertex sets (the
// recursive bisection's case, rows kept in order) and for shuffled
// ones (rows sorted after relabelling).
func TestInduceMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 500; i++ {
		g := randomMultigraph(r).Build()
		var vs []int32
		for v := 0; v < g.NV(); v++ {
			if r.Intn(3) > 0 {
				vs = append(vs, int32(v))
			}
		}
		checkInduce(t, g, vs)
		r.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		checkInduce(t, g, vs)
	}
	checkInduce(t, path(5), nil)
	checkInduce(t, path(5), []int32{4, 0, 2})
}

// FuzzCollapse decodes bytes into a multigraph (as FuzzBuilder does),
// then a group label per vertex; Collapse must equal refCollapse, and
// Induce of the odd-labelled vertices, taken in byte order (so usually
// not ascending), must equal refInduce.
func FuzzCollapse(f *testing.F) {
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{6, 1, 3, 0, 1, 2, 1, 2, 1, 2, 1, 3, 3, 4, 2, 0, 1, 1, 2, 0, 2})
	f.Add([]byte{9, 2, 5, 8, 0, 1, 0, 8, 4, 3, 4, 2, 7, 1, 1, 4, 0, 3, 2, 2, 4, 1, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nv, ncon, ngroups := int(data[0]%40), 1+int(data[1]%3), 1+int(data[2]%40)
		data = data[3:]
		labelBytes := data[:min(nv, len(data))]
		data = data[len(labelBytes):]
		b := NewBuilder(nv, ncon)
		for i := range b.vwgt {
			b.vwgt[i] = int32(i % 5)
		}
		for ; nv > 0 && len(data) >= 3; data = data[3:] {
			b.AddEdge(int(data[0])%nv, int(data[1])%nv, 1+int32(data[2]%16))
		}
		g := b.Build()
		label := make([]int32, nv)
		for i, x := range labelBytes {
			label[i] = int32(int(x) % ngroups)
		}
		checkCollapse(t, g, label, ngroups)

		var vs []int32
		seen := make([]bool, nv)
		for _, x := range labelBytes {
			if v := int(x) % max(nv, 1); x%2 == 1 && v < nv && !seen[v] {
				seen[v] = true
				vs = append(vs, int32(v))
			}
		}
		checkInduce(t, g, vs)
	})
}
