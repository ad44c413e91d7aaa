package mesh

import (
	"slices"

	"repro/internal/graph"
)

// NodalWorkspace holds NodalGraphFrom's two output graphs and its
// scratch between calls, so that a sequence of derivations allocates
// nothing once the buffers have grown. The zero value is ready to use.
// A workspace serves one sequence of calls at a time.
type NodalWorkspace struct {
	out  [2]graph.Graph // the outputs alternate between these
	last int            // index in out of the latest output

	newOf   []int32  // previous node -> node of m, or -1
	dirty   []bool   // nodes of m that an eroded element touched
	stamp   []int32  // per node of m: the row that last listed it
	contact []bool   // m's contact mask
	inc     []uint64 // v<<32 | e<<3 | slot for each incidence of a dirty node v
}

// NodalGraphFrom derives m's nodal graph from the graph pg of an
// earlier mesh prev that m came from by deleting elements and
// renumbering nodes, in time linear in the size of the graph. old[v]
// is the index in prev of m's node v. pg may carry any weights, but
// must have the topology of prev's nodal graph: the graph of an earlier
// NodalGraph or NodalGraphFrom call on prev qualifies, whatever its
// options. The result equals m.NodalGraph(opt) exactly.
//
// m's elements, mapped through old, must appear among prev's in order
// and with the same types and local node order, as the simulator's
// compaction keeps them; old must map distinct nodes to distinct nodes
// of prev. The prev elements that the in-order match skips are the
// eroded ones, and their nodes are dirty. A clean node's row is its row
// in pg mapped into m's numbering, sorted again only if the map does
// not preserve its order; a dirty node's row is rebuilt from the
// elements of m that touch it. When any precondition fails,
// NodalGraphFrom returns false and no graph; callers then build the
// graph with NodalGraph.
//
// The result lives in ws and stays valid until the second later
// successful call with ws: calls alternate between two buffers, so a
// derivation never writes into its input pg when pg is the previous
// call's result.
func (m *Mesh) NodalGraphFrom(prev *Mesh, pg *graph.Graph, old []int32, opt NodalGraphOptions, ws *NodalWorkspace) (*graph.Graph, bool) {
	opt = opt.withDefaults()
	n, pn := m.NumNodes(), prev.NumNodes()
	g := &ws.out[1-ws.last]
	if len(old) != n || pg.NV() != pn || pg == g || m.NumElems() >= 1<<28 {
		return nil, false
	}

	newOf := resize(ws.newOf, pn)
	ws.newOf = newOf
	for i := range newOf {
		newOf[i] = -1
	}
	for v, u := range old {
		if u < 0 || int(u) >= pn || newOf[u] >= 0 {
			return nil, false
		}
		newOf[u] = int32(v)
	}

	// Match m's elements in order against prev's. The nodes of every
	// prev element the match skips are dirty; dirty is indexed by m's
	// numbering, since the nodes that left with the element need no row.
	dirty := resize(ws.dirty, n)
	ws.dirty = dirty
	clear(dirty)
	anyDirty := false
	erode := func(nodes []int32) {
		for _, u := range nodes {
			if v := newOf[u]; v >= 0 {
				dirty[v] = true
				anyDirty = true
			}
		}
	}
	mp, pp := m.EPtr, prev.EPtr
	pe, pne := 0, prev.NumElems()
	for e, t := range m.Types {
		nodes := m.ENodes[mp[e]:mp[e+1]]
		for ; pe < pne; pe++ {
			pnodes := prev.ENodes[pp[pe]:pp[pe+1]]
			if t == prev.Types[pe] && mapsTo(nodes, old, pnodes) {
				break
			}
			erode(pnodes)
		}
		if pe == pne {
			return nil, false
		}
		pe++
	}
	for ; pe < pne; pe++ {
		erode(prev.ENodes[pp[pe]:pp[pe+1]])
	}

	// The dirty nodes' incidences in m, grouped by node.
	inc := ws.inc[:0]
	if anyDirty {
		for e := range m.NumElems() {
			for i, v := range m.ENodes[mp[e]:mp[e+1]] {
				if dirty[v] {
					inc = append(inc, uint64(v)<<32|uint64(e)<<3|uint64(i))
				}
			}
		}
		slices.Sort(inc)
	}
	ws.inc = inc
	stamp := resize(ws.stamp, n)
	ws.stamp = stamp
	for i := range stamp {
		stamp[i] = -1
	}

	// Erosion only deletes edges, so pg's size bounds the output's.
	xadj, adj := resize(g.Xadj, n+1), g.Adj[:0]
	if adj == nil || cap(adj) < len(pg.Adj) {
		adj = make([]int32, 0, len(pg.Adj))
	}
	xadj[0] = 0
	for v := range int32(n) {
		row := len(adj)
		if !dirty[v] {
			u, sorted := old[v], true
			for _, w := range pg.Adj[pg.Xadj[u]:pg.Xadj[u+1]] {
				x := newOf[w]
				if x < 0 {
					return nil, false // pg is not prev's graph
				}
				if len(adj) > row && x < adj[len(adj)-1] {
					sorted = false
				}
				adj = append(adj, x)
			}
			if !sorted {
				sortRow(adj[row:])
			}
		} else {
			stamp[v] = v
			for ; len(inc) > 0 && int32(inc[0]>>32) == v; inc = inc[1:] {
				es := int32(inc[0])
				e := es >> 3
				nodes := m.ENodes[m.EPtr[e]:m.EPtr[e+1]]
				for _, j := range edgeNbrs[m.Types[e]][es&7] {
					if w := nodes[j]; stamp[w] != v {
						stamp[w] = v
						adj = append(adj, w)
					}
				}
			}
			sortRow(adj[row:])
		}
		xadj[v+1] = int32(len(adj))
	}

	contact := resize(ws.contact, n)
	ws.contact = contact
	clear(contact)
	m.markContact(contact)
	vwgt := g.VWgt
	*g = graph.Graph{NCon: opt.NCon, Xadj: xadj, Adj: adj, AdjWgt: resize(g.AdjWgt, len(adj))}
	if n > 0 {
		g.VWgt = resize(vwgt, n*opt.NCon)
	}
	weigh(g, contact, opt)
	ws.last = 1 - ws.last
	return g, true
}

// mapsTo reports whether nodes, mapped through old, equal pnodes.
func mapsTo(nodes, old, pnodes []int32) bool {
	if len(nodes) != len(pnodes) {
		return false
	}
	for i, v := range nodes {
		if old[v] != pnodes[i] {
			return false
		}
	}
	return true
}

// resize returns a non-nil slice of length n, reusing s's array when it
// is large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
