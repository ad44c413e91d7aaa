// Package graph implements the weighted undirected graph substrate used
// by the partitioner: a compressed-sparse-row (CSR) adjacency structure
// with a vector of integer weights per vertex (the multi-constraint
// formulation of Karypis & Kumar) and an integer weight per edge.
//
// Graphs are immutable once built; construction from an edge list goes
// through Builder, which deduplicates parallel edges (summing their
// weights), drops self-loops and sorts every adjacency row by ascending
// neighbor id, in time linear in the vertex and edge counts (a counting
// sort, not a comparison sort of the edge list). Callers rely on the
// sorted rows: traversal order fixes the partitioner's tie-breaking,
// and hence its labels. The package also provides the quotient
// ("collapse") operation used to build the coarse region graph G' of
// the paper and every coarsening level of the multilevel partitioner,
// and the side split that builds each child of a recursive bisection.
// Both derive their CSR arrays directly from the source graph's rows
// rather than through Builder, both return exactly the graph Builder
// would, and both can write into a caller's graph and Scratch, so a
// partitioner reuses the same memory at every level and every node.
package graph

import (
	"fmt"
	"slices"
)

// Graph is an immutable undirected graph in CSR form.
//
// The adjacency of vertex v is Adj[Xadj[v]:Xadj[v+1]] with parallel edge
// weights in AdjWgt. Every undirected edge {u,v} is stored twice, once
// in each endpoint's list, with equal weights.
//
// VWgt holds NCon weights per vertex, laid out contiguously:
// VWgt[v*NCon : (v+1)*NCon].
type Graph struct {
	NCon   int     // number of vertex weight components (constraints)
	Xadj   []int32 // length NV()+1
	Adj    []int32 // concatenated adjacency lists
	AdjWgt []int32 // parallel to Adj
	VWgt   []int32 // NV()*NCon vertex weights
}

// NV returns the number of vertices.
func (g *Graph) NV() int { return len(g.Xadj) - 1 }

// NE returns the number of undirected edges.
func (g *Graph) NE() int { return len(g.Adj) / 2 }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return int(g.Xadj[v+1] - g.Xadj[v]) }

// Neighbors returns the adjacency list of v (do not modify).
func (g *Graph) Neighbors(v int) []int32 {
	return g.Adj[g.Xadj[v]:g.Xadj[v+1]]
}

// EdgeWeights returns the edge weights parallel to Neighbors(v)
// (do not modify).
func (g *Graph) EdgeWeights(v int) []int32 {
	return g.AdjWgt[g.Xadj[v]:g.Xadj[v+1]]
}

// Weight returns the j-th weight component of vertex v.
func (g *Graph) Weight(v, j int) int32 { return g.VWgt[v*g.NCon+j] }

// Weights returns the weight vector of v (do not modify).
func (g *Graph) Weights(v int) []int32 {
	return g.VWgt[v*g.NCon : (v+1)*g.NCon]
}

// TotalWeights returns the sum of all vertex weight vectors.
func (g *Graph) TotalWeights() []int64 {
	tot := make([]int64, g.NCon)
	for v := 0; v < g.NV(); v++ {
		for j := 0; j < g.NCon; j++ {
			tot[j] += int64(g.Weight(v, j))
		}
	}
	return tot
}

// TotalEdgeWeight returns the sum of undirected edge weights.
func (g *Graph) TotalEdgeWeight() int64 {
	var s int64
	for _, w := range g.AdjWgt {
		s += int64(w)
	}
	return s / 2
}

// Validate checks the CSR invariants: monotone Xadj, in-range adjacency,
// no self loops, and symmetric adjacency with matching weights. It is
// intended for tests and for validating externally constructed graphs.
func (g *Graph) Validate() error {
	n := g.NV()
	if g.NCon < 1 {
		return fmt.Errorf("graph: NCon = %d, want >= 1", g.NCon)
	}
	if len(g.VWgt) != n*g.NCon {
		return fmt.Errorf("graph: len(VWgt) = %d, want %d", len(g.VWgt), n*g.NCon)
	}
	if len(g.Adj) != len(g.AdjWgt) {
		return fmt.Errorf("graph: len(Adj) = %d != len(AdjWgt) = %d", len(g.Adj), len(g.AdjWgt))
	}
	if g.Xadj[0] != 0 || int(g.Xadj[n]) != len(g.Adj) {
		return fmt.Errorf("graph: Xadj bounds [%d,%d], want [0,%d]", g.Xadj[0], g.Xadj[n], len(g.Adj))
	}
	// Monotone offsets between framed endpoints keep every row inside
	// Adj; check them all before scanning any row.
	for v := 0; v < n; v++ {
		if g.Xadj[v] > g.Xadj[v+1] {
			return fmt.Errorf("graph: Xadj not monotone at %d", v)
		}
	}
	type key struct{ u, v int32 }
	seen := make(map[key]int32, len(g.Adj))
	for v := 0; v < n; v++ {
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adj[i]
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if w := g.AdjWgt[i]; w <= 0 {
				return fmt.Errorf("graph: edge {%d,%d} has non-positive weight %d", v, u, w)
			}
			k := key{int32(v), u}
			if _, dup := seen[k]; dup {
				return fmt.Errorf("graph: duplicate edge {%d,%d}", v, u)
			}
			seen[k] = g.AdjWgt[i]
		}
	}
	for k, w := range seen {
		if w2, ok := seen[key{k.v, k.u}]; !ok {
			return fmt.Errorf("graph: edge {%d,%d} missing reverse", k.u, k.v)
		} else if w2 != w {
			return fmt.Errorf("graph: edge {%d,%d} weight %d != reverse %d", k.u, k.v, w, w2)
		}
	}
	return nil
}

// Builder accumulates edges and produces a Graph. Edges may be added in
// any order and in either direction; parallel edges have their weights
// summed; self-loops are dropped. The built graph does not depend on
// the order of AddEdge calls: its rows are sorted by neighbor id.
type Builder struct {
	nv   int
	ncon int
	vwgt []int32
	us   []int32
	vs   []int32
	ws   []int32
}

// NewBuilder creates a builder for a graph with nv vertices and ncon
// weight components per vertex. All vertex weights start at zero.
func NewBuilder(nv, ncon int) *Builder {
	if nv < 0 || ncon < 1 {
		panic(fmt.Sprintf("graph: NewBuilder(%d, %d)", nv, ncon))
	}
	return &Builder{nv: nv, ncon: ncon, vwgt: make([]int32, nv*ncon)}
}

// SetWeight sets the j-th weight component of vertex v.
func (b *Builder) SetWeight(v, j int, w int32) { b.vwgt[v*b.ncon+j] = w }

// SetWeights sets the whole weight vector of vertex v.
func (b *Builder) SetWeights(v int, w []int32) {
	copy(b.vwgt[v*b.ncon:(v+1)*b.ncon], w)
}

// AddEdge records an undirected edge {u,v} with weight w. Edges with
// u == v are ignored; calling AddEdge(u, v, a) and AddEdge(v, u, b)
// yields a single edge of weight a+b.
func (b *Builder) AddEdge(u, v int, w int32) {
	if u == v {
		return
	}
	if u < 0 || u >= b.nv || v < 0 || v >= b.nv {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0,%d)", u, v, b.nv))
	}
	if u > v {
		u, v = v, u
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	b.ws = append(b.ws, w)
}

// Build produces the immutable Graph in time and space linear in the
// number of vertices and added edges. Every adjacency row is sorted by
// ascending neighbor id; the partitioner's deterministic tie-breaking
// depends on that order. The builder can be reused only by discarding
// it; Build is not idempotent with further AddEdge calls.
//
// The half-edges are counting-sorted into rows by source vertex. Each
// row is then compacted in place: a stamp per neighbor detects parallel
// edges, whose weights accumulate in acc, and the surviving neighbor
// ids are sorted and given their summed weights.
func (b *Builder) Build() *Graph {
	g := &Graph{
		NCon: b.ncon,
		Xadj: make([]int32, b.nv+1),
		VWgt: append([]int32(nil), b.vwgt...),
	}
	start := make([]int32, b.nv+1)
	for i := range b.us {
		start[b.us[i]+1]++
		start[b.vs[i]+1]++
	}
	for v := 0; v < b.nv; v++ {
		start[v+1] += start[v]
	}
	adj := make([]int32, 2*len(b.us))
	wgt := make([]int32, len(adj))
	pos := append([]int32(nil), start[:b.nv]...)
	for i, u := range b.us {
		v, w := b.vs[i], b.ws[i]
		adj[pos[u]], wgt[pos[u]] = v, w
		pos[u]++
		adj[pos[v]], wgt[pos[v]] = u, w
		pos[v]++
	}

	stamp, acc := pos, make([]int32, b.nv)
	for i := range stamp {
		stamp[i] = -1
	}
	n := int32(0)
	for v := 0; v < b.nv; v++ {
		row := n
		for i := start[v]; i < start[v+1]; i++ {
			u := adj[i]
			if stamp[u] == int32(v) {
				acc[u] += wgt[i]
				continue
			}
			stamp[u], acc[u] = int32(v), wgt[i]
			adj[n] = u
			n++
		}
		slices.Sort(adj[row:n])
		for i := row; i < n; i++ {
			wgt[i] = acc[adj[i]]
		}
		g.Xadj[v+1] = n
	}
	// Parallel edges leave slack behind the compacted rows; release it
	// when it is more than half of the allocation.
	g.Adj, g.AdjWgt = adj[:n], wgt[:n]
	if int(n) < len(adj)/2 {
		g.Adj, g.AdjWgt = slices.Clone(g.Adj), slices.Clone(g.AdjWgt)
	}
	return g
}

// Scratch holds the work arrays of CollapseInto and SplitInto, grown
// to the largest input seen; the zero value is ready to use.
type Scratch struct {
	idx, start, members []int32
}

// resize returns s with length n, reallocating (to exactly n) only
// when s is too small.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// SplitInto writes into dst the subgraph of g induced by the vertices
// v with where[v] == side (one side of a bisection), numbered in
// ascending order of v, so the relabelled rows stay sorted and dst is
// exactly the graph Builder would produce. dst's arrays are reused
// when large enough (dst must not be g); s holds the renumbering.
func (g *Graph) SplitInto(dst *Graph, where []int8, side int8, s *Scratch) {
	n := g.NV()
	s.idx = resize(s.idx, n)
	nv, deg := 0, 0
	for v, w := range where[:n] {
		if w == side {
			s.idx[v] = int32(nv)
			nv++
			deg += g.Degree(v)
		}
	}
	dst.NCon = g.NCon
	dst.Xadj, dst.VWgt = resize(dst.Xadj, nv+1), resize(dst.VWgt, nv*g.NCon)
	adj, wgt := resize(dst.Adj, deg), resize(dst.AdjWgt, deg)
	i, m := 0, 0
	for v, w := range where[:n] {
		if w != side {
			continue
		}
		copy(dst.VWgt[i*g.NCon:], g.Weights(v))
		ew := g.EdgeWeights(v)
		for j, u := range g.Neighbors(v) {
			if where[u] == side {
				adj[m], wgt[m] = s.idx[u], ew[j]
				m++
			}
		}
		i++
		dst.Xadj[i] = int32(m)
	}
	dst.Adj, dst.AdjWgt = adj[:m], wgt[:m]
}

// Components returns the connected component id of every vertex and the
// number of components. Ids are assigned in order of first discovery.
func (g *Graph) Components() (comp []int32, n int) {
	comp = make([]int32, g.NV())
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	for v := 0; v < g.NV(); v++ {
		if comp[v] >= 0 {
			continue
		}
		comp[v] = int32(n)
		stack = append(stack[:0], int32(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(int(u)) {
				if comp[w] < 0 {
					comp[w] = int32(n)
					stack = append(stack, w)
				}
			}
		}
		n++
	}
	return comp, n
}

// Collapse builds the quotient graph of g under the vertex labeling
// label (values in [0, ngroups)): one coarse vertex per group, weight
// vectors summed componentwise, and an edge between two groups with
// weight equal to the total weight of original edges between them.
// Groups with no vertices become isolated zero-weight vertices. It is
// the G' construction of Section 4.2 (label = decision-tree leaf ids).
func (g *Graph) Collapse(label []int32, ngroups int) *Graph {
	c := new(Graph)
	g.CollapseInto(c, label, ngroups, new(Scratch))
	return c
}

// CollapseInto writes the quotient graph Collapse returns into dst,
// reusing dst's arrays and s's work arrays when they are large enough
// (dst must not be g). Rows go straight into dst's edge arrays if they
// have room for all of g's edges, else into a temporary copied out at
// the quotient's size.
//
// The contraction is direct, as in METIS: vertices are bucketed by
// group, and each group's row merges its members' rows, with a marker
// per coarse neighbour recording where it already sits in the row so
// parallel edges add their weights there. Edges inside a group are
// dropped. Each row is then sorted, so the result is the same graph
// Builder would produce from the inter-group edges.
func (g *Graph) CollapseInto(dst *Graph, label []int32, ngroups int, s *Scratch) {
	n := g.NV()
	if len(label) != n {
		panic(fmt.Sprintf("graph: Collapse label length %d != NV %d", len(label), n))
	}
	dst.NCon = g.NCon
	dst.Xadj, dst.VWgt = resize(dst.Xadj, ngroups+1), resize(dst.VWgt, ngroups*g.NCon)
	clear(dst.VWgt)
	// Counting-sort the vertices into groups: group l's members are
	// members[start[l]:start[l+1]], in ascending vertex order.
	start := resize(s.start, ngroups+1)
	clear(start)
	for v, l := range label {
		if l < 0 || int(l) >= ngroups {
			panic(fmt.Sprintf("graph: Collapse label[%d] = %d out of range [0,%d)", v, l, ngroups))
		}
		start[l+1]++
		for j, w := range g.Weights(v) {
			dst.VWgt[int(l)*g.NCon+j] += w
		}
	}
	for l := 0; l < ngroups; l++ {
		start[l+1] += start[l]
	}
	members, pos := resize(s.members, n), resize(s.idx, ngroups)
	copy(pos, start)
	for v, l := range label {
		members[pos[l]] = int32(v)
		pos[l]++
	}

	// at[d] is where coarse neighbour d sits in the row being built,
	// or -1 while it is absent; parallel edges add their weight there.
	at := pos
	for i := range at {
		at[i] = -1
	}
	adj, wgt := dst.Adj[:0], dst.AdjWgt[:0]
	direct := cap(adj) >= len(g.Adj) && cap(wgt) >= len(g.Adj)
	if !direct {
		adj, wgt = make([]int32, 0, len(g.Adj)), make([]int32, 0, len(g.Adj))
	}
	for l := 0; l < ngroups; l++ {
		row := len(adj)
		for _, v := range members[start[l]:start[l+1]] {
			ew := g.EdgeWeights(int(v))
			for i, u := range g.Neighbors(int(v)) {
				d := label[u]
				if int(d) == l {
					continue
				}
				if k := at[d]; k >= 0 {
					wgt[k] += ew[i]
					continue
				}
				at[d] = int32(len(adj))
				adj = append(adj, d)
				wgt = append(wgt, ew[i])
			}
		}
		// Sort the row by neighbour id. The positions in at are no
		// longer needed, so at carries each neighbour's weight across
		// the sort and is reset to -1 as the weights are read back.
		r := adj[row:]
		for i, d := range r {
			at[d] = wgt[row+i]
		}
		slices.Sort(r)
		for i, d := range r {
			wgt[row+i], at[d] = at[d], -1
		}
		dst.Xadj[l+1] = int32(len(adj))
	}
	if !direct {
		adj, wgt = slices.Clone(adj), slices.Clone(wgt)
	}
	dst.Adj, dst.AdjWgt = adj, wgt
	s.idx, s.start, s.members = at, start, members
}
