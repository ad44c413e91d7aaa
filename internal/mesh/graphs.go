package mesh

import (
	"fmt"
	"slices"

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
// ENodes gives every node its incidences, each an element and v's local
// slot in it packed as e<<3 | slot, and row v gathers the nodes that
// edgeNbrs joins to those slots, with a stamp per node dropping
// neighbors already seen through another element. The packing limits
// the mesh to fewer than 2^28 elements, and NodalGraph panics beyond
// that; ReadMesh's 2^28 bound on the node-list length keeps every mesh
// it reads well below it.
func (m *Mesh) NodalGraph(opt NodalGraphOptions) *graph.Graph {
	opt = opt.withDefaults()
	n := m.NumNodes()
	if m.NumElems() >= 1<<28 {
		panic(fmt.Sprintf("mesh: NodalGraph supports fewer than 2^28 elements, got %d", m.NumElems()))
	}
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
		for i, v := range m.ElemNodes(e) {
			inc[next[v]] = int32(e)<<3 | int32(i)
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
		for _, es := range inc[first[v]:first[v+1]] {
			e := es >> 3
			nodes := m.ENodes[m.EPtr[e]:m.EPtr[e+1]]
			for _, j := range edgeNbrs[m.Types[e]][es&7] {
				if u := nodes[j]; stamp[u] != v {
					stamp[u] = v
					adj = append(adj, u)
				}
			}
		}
		sortRow(adj[xadj[v]:])
		xadj[v+1] = int32(len(adj))
	}

	g := &graph.Graph{NCon: opt.NCon, Xadj: xadj, Adj: adj, AdjWgt: make([]int32, len(adj))}
	if n > 0 { // nil for an empty mesh, as graph.Builder leaves it
		g.VWgt = make([]int32, n*opt.NCon)
	}
	contact := make([]bool, n)
	m.markContact(contact)
	weigh(g, contact, opt)
	return g
}

// withDefaults replaces the options' unset or invalid fields by their
// defaults: one constraint and unit weights.
func (opt NodalGraphOptions) withDefaults() NodalGraphOptions {
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
	return opt
}

// weigh sets the vertex and edge weights of a nodal graph whose
// topology and weight slices are in place, from the contact mask.
func weigh(g *graph.Graph, contact []bool, opt NodalGraphOptions) {
	clear(g.VWgt)
	for i := range g.AdjWgt {
		g.AdjWgt[i] = 1
	}
	for v := range g.NV() {
		g.VWgt[v*opt.NCon] = opt.FEWeight
		if !contact[v] {
			continue
		}
		if opt.NCon >= 2 {
			g.VWgt[v*opt.NCon+1] = opt.ContactWeight
		}
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			if contact[g.Adj[i]] {
				g.AdjWgt[i] = opt.ContactEdgeWeight
			}
		}
	}
}

// edgeNbrs[t][i] lists the local nodes that an edge of element type t
// joins to local node i, derived from edgeTable.
var edgeNbrs = func() (nbrs [len(edgeTable)][8][]uint8) {
	for t, edges := range edgeTable {
		for _, p := range edges {
			nbrs[t][p[0]] = append(nbrs[t][p[0]], uint8(p[1]))
			nbrs[t][p[1]] = append(nbrs[t][p[1]], uint8(p[0]))
		}
	}
	return nbrs
}()

// sortRow sorts an adjacency row: by insertion when it is short, as
// nearly every row is (about 14 entries in a tetrahedral mesh).
func sortRow(row []int32) {
	if len(row) > 32 {
		slices.Sort(row)
		return
	}
	for i := 1; i < len(row); i++ {
		for j := i; j > 0 && row[j] < row[j-1]; j-- {
			row[j], row[j-1] = row[j-1], row[j]
		}
	}
}

// matchFacets enumerates the element facets in element order, facet f
// being face f-first[e] of the element e with first[e] <= f < first[e+1],
// and matches facets with equal node sets: rep[f] is the first facet
// whose sorted node key equals f's.
//
// The keys are counting-sorted by smallest node, which keeps facet order
// within a bucket. head[b] is the latest facet whose second-smallest
// node is b, and link chains it to the earlier ones. The walk down that
// chain stops at the first facet of an earlier bucket, so a facet is
// compared only with facets sharing its two smallest nodes.
func (m *Mesh) matchFacets() (first, rep []int32) {
	ne := m.NumElems()
	first = make([]int32, ne+1)
	for e := 0; e < ne; e++ {
		first[e+1] = first[e] + int32(len(m.Types[e].Faces()))
	}
	keys := make([][4]int32, first[ne]) // sorted node ids, -1 padded
	start := make([]int32, m.NumNodes()+1)
	for e := 0; e < ne; e++ {
		nodes := m.ElemNodes(e)
		for i, face := range m.Types[e].Faces() {
			k := &keys[int(first[e])+i]
			*k = [4]int32{-1, -1, -1, -1}
			for j, li := range face {
				k[j] = nodes[li]
				for s := j; s > 0 && k[s] < k[s-1]; s-- {
					k[s], k[s-1] = k[s-1], k[s]
				}
			}
			start[k[0]+1]++
		}
	}
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
	order := make([]int32, len(keys))
	for f := range keys {
		order[start[keys[f][0]]] = int32(f)
		start[keys[f][0]]++
	}

	head := start
	for i := range head {
		head[i] = -1
	}
	rep, link := make([]int32, len(keys)), make([]int32, len(keys))
	for _, f := range order {
		k, r := &keys[f], f
		for g := head[k[1]]; g >= 0 && keys[g][0] == k[0]; g = link[g] {
			if keys[g] == *k {
				r = rep[g]
				break
			}
		}
		link[f], head[k[1]], rep[f] = head[k[1]], f, r
	}
	return first, rep
}

// DualGraph builds the dual graph of the mesh: one vertex per element,
// an edge between elements sharing a facet (an edge in 2D, a face in
// 3D). All weights are 1. The occurrences of a facet pair up in element
// order, the 1st with the 2nd, the 3rd with the 4th, and so on.
func (m *Mesh) DualGraph() *graph.Graph {
	first, rep := m.matchFacets()
	open := make([]int32, len(rep)) // 1 + the element waiting on a facet, or 0
	b := graph.NewBuilder(m.NumElems(), 1)
	for e := 0; e < m.NumElems(); e++ {
		b.SetWeight(e, 0, 1)
		for f := first[e]; f < first[e+1]; f++ {
			if r := rep[f]; open[r] > 0 {
				b.AddEdge(int(open[r]-1), e, 1)
				open[r] = 0
			} else {
				open[r] = int32(e) + 1
			}
		}
	}
	return b.Build()
}

// BoundaryFacets returns the facets that belong to exactly one element,
// as SurfaceElem values (useful for designating contact surfaces on
// generated meshes), ordered by element and then by node tuple. The
// facet node order is the element-local order. It returns nil when no
// facet is on the boundary.
func (m *Mesh) BoundaryFacets() []SurfaceElem { return m.CountFacets().Boundary(m) }

// FacetCounts is the facet matching of a mesh whose elements are only
// ever deleted: the key id of every facet, the facets enumerated in
// element order as matchFacets enumerates them, and for each key id the
// number of facets that share the key. A facet is on the boundary when
// its key's count is 1. Erode keeps the counts current as elements go,
// so a mesh that loses a few elements at a time is matched only once.
type FacetCounts struct {
	key   []int32 // key id of each facet
	count []int32 // facets per key id
	nb    int     // key ids whose count is 1
}

// CountFacets matches the facets of m.
func (m *Mesh) CountFacets() *FacetCounts {
	_, rep := m.matchFacets()
	fc := &FacetCounts{key: rep, count: make([]int32, len(rep))}
	for _, r := range rep {
		switch fc.count[r]++; fc.count[r] {
		case 1:
			fc.nb++
		case 2:
			fc.nb--
		}
	}
	return fc
}

// Erode deletes from fc the facets of m's elements listed in dead, in
// ascending order, where m is the mesh fc counts. Call it before those
// elements leave m: afterwards fc counts the facets of m without them,
// in the surviving elements' order.
func (fc *FacetCounts) Erode(m *Mesh, dead []int32) {
	f, w := 0, 0 // read and write facet positions
	for e, t := range m.Types {
		nf := len(t.Faces())
		if len(dead) > 0 && int(dead[0]) == e {
			dead = dead[1:]
			for _, k := range fc.key[f : f+nf] {
				switch fc.count[k]--; fc.count[k] {
				case 1:
					fc.nb++
				case 0:
					fc.nb--
				}
			}
		} else {
			w += copy(fc.key[w:], fc.key[f:f+nf])
		}
		f += nf
	}
	fc.key = fc.key[:w]
}

// Boundary returns the boundary facets of m, the mesh fc counts, as
// BoundaryFacets does.
func (fc *FacetCounts) Boundary(m *Mesh) []SurfaceElem {
	if fc.nb == 0 {
		return nil
	}
	out, buf := make([]SurfaceElem, 0, fc.nb), make([]int32, 0, 4*fc.nb) // facets have at most 4 nodes
	f := 0
	for e := 0; e < m.NumElems(); e++ {
		nodes, lo := m.ElemNodes(e), len(out)
		for _, face := range m.Types[e].Faces() {
			if fc.count[fc.key[f]] == 1 {
				n := len(buf)
				for _, li := range face {
					buf = append(buf, nodes[li])
				}
				out = append(out, SurfaceElem{Nodes: buf[n:len(buf):len(buf)], Elem: int32(e)})
			}
			f++
		}
		if len(out)-lo > 1 {
			slices.SortFunc(out[lo:], func(a, b SurfaceElem) int { return slices.Compare(a.Nodes, b.Nodes) })
		}
	}
	return out
}
