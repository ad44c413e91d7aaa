package mesh

import (
	"slices"
	"sort"

	"repro/internal/graph"
)

// NodalGraphOptions controls the construction of the two-constraint
// nodal graph of Section 4.2.
type NodalGraphOptions struct {
	// NCon is the number of vertex weight components: 1 for the plain
	// (single-constraint) nodal graph used by ML+RCB's mesh phase, 2 for
	// the contact/impact formulation where w1 models the FE phase and w2
	// the contact-search phase.
	NCon int
	// ContactEdgeWeight is assigned to edges whose both endpoints are
	// contact nodes; all other edges get weight 1. The paper's
	// experiments use 5.
	ContactEdgeWeight int32
	// FEWeight is w1(v) for every node; ContactWeight is w2(v) for
	// contact nodes (w2 is zero elsewhere). The paper's experiments set
	// both to 1.
	FEWeight      int32
	ContactWeight int32
}

// DefaultNodalOptions returns the configuration used in the paper's
// evaluation: unit vertex weights and contact-edge weight 5.
func DefaultNodalOptions() NodalGraphOptions {
	return NodalGraphOptions{NCon: 2, ContactEdgeWeight: 5, FEWeight: 1, ContactWeight: 1}
}

// NodalGraph builds the nodal graph of the mesh: one vertex per mesh
// node, one edge per mesh edge (deduplicated across elements). Vertex
// and edge weights follow opt. Adjacency rows are sorted by ascending
// neighbor id, as graph.Builder produces them.
//
// The construction is linear in the mesh size: a counting sort of
// ENodes gives every node its incident elements, and row v gathers the
// other endpoints of those elements' edges at v, with a stamp per node
// dropping neighbors already seen through another element.
func (m *Mesh) NodalGraph(opt NodalGraphOptions) *graph.Graph {
	if opt.NCon < 1 {
		opt.NCon = 1
	}
	if opt.FEWeight <= 0 {
		opt.FEWeight = 1
	}
	if opt.ContactWeight <= 0 {
		opt.ContactWeight = 1
	}
	if opt.ContactEdgeWeight <= 0 {
		opt.ContactEdgeWeight = 1
	}
	n := m.NumNodes()
	first := make([]int32, n+1)
	for _, v := range m.ENodes {
		first[v+1]++
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	inc := make([]int32, len(m.ENodes))
	next := append([]int32(nil), first[:n]...)
	for e := 0; e < m.NumElems(); e++ {
		for _, v := range m.ElemNodes(e) {
			inc[next[v]] = int32(e)
			next[v]++
		}
	}

	stamp := next
	for i := range stamp {
		stamp[i] = -1
	}
	xadj := make([]int32, n+1)
	adj := make([]int32, 0, len(m.ENodes))
	for v := int32(0); v < int32(n); v++ {
		stamp[v] = v // no self-loops from degenerate elements
		for _, e := range inc[first[v]:first[v+1]] {
			nodes := m.ElemNodes(int(e))
			for _, pair := range m.Types[e].Edges() {
				a, b := nodes[pair[0]], nodes[pair[1]]
				if a != v {
					if b != v {
						continue
					}
					b = a
				}
				if stamp[b] != v {
					stamp[b] = v
					adj = append(adj, b)
				}
			}
		}
		slices.Sort(adj[xadj[v]:])
		xadj[v+1] = int32(len(adj))
	}

	contact := m.ContactMask()
	g := &graph.Graph{NCon: opt.NCon, Xadj: xadj, Adj: adj, AdjWgt: make([]int32, len(adj))}
	if n > 0 { // nil for an empty mesh, as graph.Builder leaves it
		g.VWgt = make([]int32, n*opt.NCon)
	}
	for v := 0; v < n; v++ {
		g.VWgt[v*opt.NCon] = opt.FEWeight
		if opt.NCon >= 2 && contact[v] {
			g.VWgt[v*opt.NCon+1] = opt.ContactWeight
		}
		for i := xadj[v]; i < xadj[v+1]; i++ {
			g.AdjWgt[i] = 1
			if contact[v] && contact[adj[i]] {
				g.AdjWgt[i] = opt.ContactEdgeWeight
			}
		}
	}
	return g
}

// DualGraph builds the dual graph of the mesh: one vertex per element,
// an edge between elements sharing a facet (an edge in 2D, a face in
// 3D). All weights are 1.
func (m *Mesh) DualGraph() *graph.Graph {
	b := graph.NewBuilder(m.NumElems(), 1)
	for e := 0; e < m.NumElems(); e++ {
		b.SetWeight(e, 0, 1)
	}
	type faceKey [4]int32 // sorted node ids, -1 padded
	owner := make(map[faceKey]int32, m.NumElems()*3)
	var tmp [4]int32
	for e := 0; e < m.NumElems(); e++ {
		nodes := m.ElemNodes(e)
		for _, face := range m.Types[e].Faces() {
			k := faceKey{-1, -1, -1, -1}
			for i, li := range face {
				tmp[i] = nodes[li]
			}
			ns := tmp[:len(face)]
			sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
			copy(k[:], ns)
			if prev, ok := owner[k]; ok {
				b.AddEdge(int(prev), e, 1)
				delete(owner, k) // a facet is shared by at most two elements
			} else {
				owner[k] = int32(e)
			}
		}
	}
	return b.Build()
}

// BoundaryFacets returns the facets that belong to exactly one element,
// as SurfaceElem values (useful for designating contact surfaces on
// generated meshes). The facet node order is the element-local order.
func (m *Mesh) BoundaryFacets() []SurfaceElem {
	type faceKey [4]int32
	type rec struct {
		elem  int32
		nodes []int32
		count int
	}
	recs := make(map[faceKey]*rec, m.NumElems()*3)
	var tmp [4]int32
	for e := 0; e < m.NumElems(); e++ {
		nodes := m.ElemNodes(e)
		for _, face := range m.Types[e].Faces() {
			orig := make([]int32, len(face))
			for i, li := range face {
				orig[i] = nodes[li]
				tmp[i] = nodes[li]
			}
			ns := tmp[:len(face)]
			sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
			k := faceKey{-1, -1, -1, -1}
			copy(k[:], ns)
			if r, ok := recs[k]; ok {
				r.count++
			} else {
				recs[k] = &rec{elem: int32(e), nodes: orig, count: 1}
			}
		}
	}
	var out []SurfaceElem
	for _, r := range recs {
		if r.count == 1 {
			out = append(out, SurfaceElem{Nodes: r.nodes, Elem: r.elem})
		}
	}
	// Deterministic order for reproducibility.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Elem != b.Elem {
			return a.Elem < b.Elem
		}
		for k := 0; k < len(a.Nodes) && k < len(b.Nodes); k++ {
			if a.Nodes[k] != b.Nodes[k] {
				return a.Nodes[k] < b.Nodes[k]
			}
		}
		return len(a.Nodes) < len(b.Nodes)
	})
	return out
}
