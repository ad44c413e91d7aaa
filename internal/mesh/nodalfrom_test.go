package mesh_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	. "repro/internal/mesh"
	"repro/internal/sim"
)

// compactMesh returns m without the elements dead marks, its surviving
// nodes renumbered as the simulator's compaction numbers them (in order
// of first use by the surviving elements) or, with shuffle, at random,
// and the map from each node of the result to its index in m. Nodes no
// surviving element uses are dropped. The contact surface is redrawn
// from r: each surviving element flags its first facet with
// probability 1/3.
func compactMesh(r *rand.Rand, m *Mesh, dead []bool, shuffle bool) (*Mesh, []int32) {
	newIdx := make([]int32, m.NumNodes())
	for i := range newIdx {
		newIdx[i] = -1
	}
	var old []int32
	for e := range m.NumElems() {
		if dead[e] {
			continue
		}
		for _, v := range m.ElemNodes(e) {
			if newIdx[v] < 0 {
				newIdx[v] = int32(len(old))
				old = append(old, v)
			}
		}
	}
	if shuffle {
		perm := r.Perm(len(old))
		shuffled := make([]int32, len(old))
		for i, u := range old {
			newIdx[u] = int32(perm[i])
			shuffled[perm[i]] = u
		}
		old = shuffled
	}
	out := &Mesh{Dim: m.Dim, EPtr: []int32{0}}
	for _, u := range old {
		out.Coords = append(out.Coords, m.Coords[u])
	}
	for e := range m.NumElems() {
		if dead[e] {
			continue
		}
		nodes := make([]int32, 0, 8)
		for _, u := range m.ElemNodes(e) {
			nodes = append(nodes, newIdx[u])
		}
		addElem(out, m.Types[e], nodes...)
		if r.Intn(3) == 0 {
			s := SurfaceElem{Elem: int32(out.NumElems() - 1)}
			for _, li := range m.Types[e].Faces()[0] {
				s.Nodes = append(s.Nodes, nodes[li])
			}
			out.Surface = append(out.Surface, s)
		}
	}
	return out, old
}

// withElems returns m with its element list replaced by elems (types
// and node lists), keeping nodes and surface.
func withElems(m *Mesh, types []ElemType, nodes [][]int32) *Mesh {
	out := &Mesh{Dim: m.Dim, Coords: m.Coords, Surface: m.Surface, EPtr: []int32{0}}
	for i, t := range types {
		addElem(out, t, nodes[i]...)
	}
	return out
}

// derivable is the reference for NodalGraphFrom's precondition: old
// maps m's nodes one to one into prev's, and m's elements, mapped
// through old, are a subsequence of prev's (types and node order
// included). A greedy scan decides the subsequence question exactly.
func derivable(m, prev *Mesh, old []int32) bool {
	seen := map[int32]bool{}
	for _, u := range old {
		if u < 0 || int(u) >= prev.NumNodes() || seen[u] {
			return false
		}
		seen[u] = true
	}
	pe := 0
	for e := range m.NumElems() {
		for ; pe < prev.NumElems(); pe++ {
			if m.Types[e] != prev.Types[pe] {
				continue
			}
			mapped := []int32{}
			for _, v := range m.ElemNodes(e) {
				mapped = append(mapped, old[v])
			}
			if reflect.DeepEqual(mapped, prev.ElemNodes(pe)) {
				break
			}
		}
		if pe == prev.NumElems() {
			return false
		}
		pe++
	}
	return true
}

// FuzzNodalGraphFrom erodes a decoded mesh (see decodeMesh) through a
// sequence of random masks drawn from the seed, renumbering the
// survivors after each step, and derives every step's nodal graph from
// the previous step's. A derived graph must equal refNodalGraph. Some
// steps are spoiled on purpose: two elements swapped, an element
// inserted, or a node mapped outside the previous mesh; the derivation
// must then refuse exactly when the reference precondition fails.
func FuzzNodalGraphFrom(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 1, 2, 1, 1, 2, 3, 0, 3}, int64(1))
	f.Add([]byte{0, 5, 2, 0, 0, 1, 7, 1, 2, 3, 4}, int64(2))
	f.Add([]byte{1, 5, 6, 0, 1, 2, 3, 2, 1, 2, 3, 4, 0, 0, 0, 1, 2}, int64(3))
	f.Add([]byte{1, 11, 15, 0, 1, 2, 3, 4, 5, 6, 7, 19, 4, 5, 6, 7, 8, 9, 10, 11, 2, 4, 5, 6, 8}, int64(4))
	f.Add([]byte{1, 9, 0, 0, 1, 2, 3, 0, 1, 2, 4, 0, 1, 3, 4, 0, 2, 3, 4, 0, 5, 6, 7, 8, 0, 1, 2, 3}, int64(5))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		m := decodeMesh(data)
		if m == nil || m.Validate() != nil {
			return
		}
		r := rand.New(rand.NewSource(seed))
		var ws NodalWorkspace
		pg := m.NodalGraph(nodalOptions[r.Intn(len(nodalOptions))])
		for step := 0; step < 6; step++ {
			dead := make([]bool, m.NumElems())
			for e := range dead {
				dead[e] = r.Intn(4) == 0
			}
			next, old := compactMesh(r, m, dead, r.Intn(2) == 0)
			switch spoil := r.Intn(5); {
			case spoil == 0 && next.NumElems() >= 2:
				types, nodes := next.Types, [][]int32{}
				for e := range next.NumElems() {
					nodes = append(nodes, next.ElemNodes(e))
				}
				i, j := r.Intn(len(types)), r.Intn(len(types))
				types = append([]ElemType(nil), types...)
				types[i], types[j] = types[j], types[i]
				nodes[i], nodes[j] = nodes[j], nodes[i]
				next = withElems(next, types, nodes)
			case spoil == 1 && next.NumNodes() > 0:
				types, nodes := []ElemType{}, [][]int32{}
				for e := range next.NumElems() {
					types = append(types, next.Types[e])
					nodes = append(nodes, next.ElemNodes(e))
				}
				typ := [2][2]ElemType{{Tri3, Quad4}, {Tet4, Hex8}}[next.Dim-2][r.Intn(2)]
				extra := make([]int32, typ.NumNodes())
				for i := range extra {
					extra[i] = int32(r.Intn(next.NumNodes()))
				}
				at := r.Intn(len(types) + 1)
				types = append(types[:at], append([]ElemType{typ}, types[at:]...)...)
				nodes = append(nodes[:at], append([][]int32{extra}, nodes[at:]...)...)
				next = withElems(next, types, nodes)
			case spoil == 2 && len(old) > 0:
				old[r.Intn(len(old))] = []int32{-1, int32(m.NumNodes()), old[r.Intn(len(old))]}[r.Intn(3)]
			}
			opt := nodalOptions[step%len(nodalOptions)]
			got, ok := next.NodalGraphFrom(m, pg, old, opt, &ws)
			if want := derivable(next, m, old); ok != want {
				t.Fatalf("step %d: NodalGraphFrom ok = %v, want %v", step, ok, want)
			}
			if !ok {
				return
			}
			if want := refNodalGraph(next, opt); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: derived graph differs from refNodalGraph:\n got %+v\nwant %+v", step, got, want)
			}
			m, pg = next, got
		}
	})
}

// simTransitions steps a simulation through its snapshots, calling fn
// with each snapshot after the first and the node map from it to the
// one before. Snapshots before the first th one are skipped.
func simTransitions(t *testing.T, cfg sim.Config, first int, fn func(prev, cur sim.Snapshot, old []int32)) {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	interval := cfg.Steps / cfg.Snapshots
	var prev sim.Snapshot
	idx := map[int64]int32{}
	for step, n := 1, 0; step <= cfg.Steps; step++ {
		s.Step()
		if step%interval != 0 {
			continue
		}
		if n++; n <= first {
			continue
		}
		cur := s.Snapshot(n)
		if prev.Mesh != nil {
			old := make([]int32, len(cur.NodeID))
			for v, id := range cur.NodeID {
				i, ok := idx[id]
				if !ok {
					t.Fatalf("snapshot %d: node id %d not in the previous snapshot", n, id)
				}
				old[v] = i
			}
			fn(prev, cur, old)
		}
		clear(idx)
		for v, id := range cur.NodeID {
			idx[id] = int32(v)
		}
		prev = cur
	}
}

// TestNodalGraphFromSim derives every snapshot's nodal graph from the
// previous snapshot's along the simulator's tetrahedral and hexahedral
// default runs and the paper scene's Refine-1 window (perfbench's
// table1_fixed), alternating the paper's options with the metric
// graph's. Every derived graph must equal NodalGraph's.
func TestNodalGraphFromSim(t *testing.T) {
	hex := sim.DefaultConfig()
	hex.Scene.Tets = false
	paper := sim.PaperConfig()
	paper.Scene.Refine = 1
	paper.Steps, paper.Snapshots = 400, 100
	for _, tc := range []struct {
		name  string
		cfg   sim.Config
		first int // snapshots skipped
		max   int // transitions checked
		short bool
	}{
		{"tets", sim.DefaultConfig(), 0, 99, true},
		{"hexes", hex, 0, 99, true},
		{"paper_window", paper, 24, 15, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skip("paper scene takes seconds to generate")
			}
			var ws NodalWorkspace
			var pg *graph.Graph
			checked, eroded := 0, 0
			opts := []NodalGraphOptions{DefaultNodalOptions(), {NCon: 2}}
			simTransitions(t, tc.cfg, tc.first, func(prev, cur sim.Snapshot, old []int32) {
				if checked == tc.max {
					return
				}
				if pg == nil {
					pg = prev.Mesh.NodalGraph(opts[0])
				}
				opt := opts[checked%2]
				got, ok := cur.Mesh.NodalGraphFrom(prev.Mesh, pg, old, opt, &ws)
				if !ok {
					t.Fatalf("snapshot %d: derivation refused", cur.Index)
				}
				if want := cur.Mesh.NodalGraph(opt); !reflect.DeepEqual(got, want) {
					t.Fatalf("snapshot %d: derived graph differs from NodalGraph", cur.Index)
				}
				if cur.Mesh.NumElems() < prev.Mesh.NumElems() {
					eroded++
				}
				pg = got
				checked++
			})
			if checked != tc.max || eroded == 0 {
				t.Fatalf("checked %d transitions (want %d), %d with erosion", checked, tc.max, eroded)
			}
		})
	}
}

// TestNodalGraphFromRefuses pins the refusals the fuzz target reaches
// at random: a node map of the wrong length, an unknown node, two
// nodes mapped to one, an element out of order, and a graph of the
// wrong size.
func TestNodalGraphFromRefuses(t *testing.T) {
	prev := gridMesh(3, 2, true)
	pg := prev.NodalGraph(NodalGraphOptions{})
	ident := make([]int32, prev.NumNodes())
	for i := range ident {
		ident[i] = int32(i)
	}
	var ws NodalWorkspace
	if _, ok := prev.NodalGraphFrom(prev, pg, ident, NodalGraphOptions{}, &ws); !ok {
		t.Fatal("identity derivation refused")
	}
	swapped := &Mesh{Dim: 2, Coords: prev.Coords, EPtr: []int32{0}}
	addElem(swapped, Tri3, prev.ElemNodes(1)...)
	addElem(swapped, Tri3, prev.ElemNodes(0)...)
	for name, tc := range map[string]struct {
		m   *Mesh
		old []int32
		pg  *graph.Graph
	}{
		"short map":   {prev, ident[1:], pg},
		"unknown":     {prev, append(append([]int32(nil), ident[:len(ident)-1]...), int32(len(ident))), pg},
		"not 1:1":     {prev, append(append([]int32(nil), ident[:len(ident)-1]...), 0), pg},
		"reordered":   {swapped, ident, pg},
		"wrong graph": {prev, ident, gridMesh(2, 2, true).NodalGraph(NodalGraphOptions{})},
	} {
		if g, ok := tc.m.NodalGraphFrom(prev, tc.pg, tc.old, NodalGraphOptions{}, &ws); ok || g != nil {
			t.Errorf("%s: derivation accepted", name)
		}
	}
}
