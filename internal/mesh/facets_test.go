// The facet tests, and the fixtures in graphs_test.go and
// ngbench_test.go they share, are in the external test package so they
// can run on simulator snapshots: package sim imports mesh.
package mesh_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	. "repro/internal/mesh"
	"repro/internal/sim"
)

// refDualGraph is the map-based DualGraph the facet matcher replaced:
// a facet key owner map that pairs the 1st and 2nd, 3rd and 4th, ...
// occurrences of a key. It is the reference DualGraph must match.
func refDualGraph(m *Mesh) *graph.Graph {
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

// refBoundaryFacets is the map-based BoundaryFacets the facet matcher
// replaced: it counts every facet key in a map, keeps the keys seen
// once and sorts them by element and node tuple. It is the reference
// BoundaryFacets must match.
func refBoundaryFacets(m *Mesh) []SurfaceElem {
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

// checkFacets fails t unless BoundaryFacets and DualGraph equal their
// references on m.
func checkFacets(t *testing.T, m *Mesh) {
	t.Helper()
	if got, want := m.BoundaryFacets(), refBoundaryFacets(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("BoundaryFacets differs from refBoundaryFacets:\n got %v\nwant %v", head(got), head(want))
	}
	if got, want := m.DualGraph(), refDualGraph(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("DualGraph differs from refDualGraph")
	}
}

func head(s []SurfaceElem) []SurfaceElem { return s[:min(len(s), 12)] }

// addElem appends an element of type t with the given nodes.
func addElem(m *Mesh, t ElemType, nodes ...int32) {
	m.Types = append(m.Types, t)
	m.ENodes = append(m.ENodes, nodes...)
	m.EPtr = append(m.EPtr, int32(len(m.ENodes)))
}

// mixedMesh is a 3x3x2 hexahedral block whose every other cell is split
// into six tetrahedra. Split cells share only triangles and unsplit
// ones only quads, so the hex/tet interfaces are boundary facets of
// both kinds.
func mixedMesh() *Mesh {
	hexes, tets := blockMesh(3, 3, 2, false), blockMesh(3, 3, 2, true)
	m := &Mesh{Dim: 3, Coords: hexes.Coords, EPtr: []int32{0}}
	for c := 0; c < hexes.NumElems(); c++ {
		if c%2 == 0 {
			addElem(m, Hex8, hexes.ElemNodes(c)...)
			continue
		}
		for e := 6 * c; e < 6*c+6; e++ {
			addElem(m, Tet4, tets.ElemNodes(e)...)
		}
	}
	return m
}

func TestFacetsMatchReference(t *testing.T) {
	meshes := map[string]func() *Mesh{
		"tri3":  func() *Mesh { return gridMesh(9, 7, true) },
		"quad4": func() *Mesh { return gridMesh(9, 7, false) },
		"tet4":  func() *Mesh { return blockMesh(5, 4, 3, true) },
		"hex8":  func() *Mesh { return blockMesh(5, 4, 3, false) },
		"mixed": mixedMesh,
		"star":  func() *Mesh { return starMesh(300) },
		"empty": func() *Mesh { return &Mesh{Dim: 3, EPtr: []int32{0}} },
		"nodes only": func() *Mesh {
			return &Mesh{Dim: 2, EPtr: []int32{0}, Coords: make([]geom.Point, 5)}
		},
	}
	for name, gen := range meshes {
		for _, variant := range []struct {
			name    string
			repeats int
		}{{"plain", 0}, {"scrambled", 0}, {"repeated", 25}} {
			t.Run(name+"/"+variant.name, func(t *testing.T) {
				m := gen()
				if variant.name != "plain" && m.NumElems() > 0 {
					scramble(rand.New(rand.NewSource(5)), m, variant.repeats, 0)
				}
				if err := m.Validate(); err != nil {
					t.Fatal(err)
				}
				checkFacets(t, m)
			})
		}
	}
}

// TestFacetsMatchReferenceOnSnapshots compares BoundaryFacets and
// DualGraph with the map-based references on eroded snapshots of the
// paper profile at Refine 1 (~18k nodes, ~88k tetrahedra): the meshes
// the simulator re-designates a contact surface on every snapshot.
func TestFacetsMatchReferenceOnSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Refine-1 paper scene")
	}
	cfg := sim.PaperConfig()
	cfg.Scene.Refine = 1
	cfg.Steps, cfg.Snapshots = 6, 3 // the projectile crosses both plates
	snaps, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps {
		if i > 0 && s.Mesh.NumElems() == snaps[i-1].Mesh.NumElems() {
			t.Fatalf("snapshot %d eroded nothing", i)
		}
		t.Run(fmt.Sprint("snapshot", i), func(t *testing.T) { checkFacets(t, s.Mesh) })
	}
}

func TestFacetsEdgeCases(t *testing.T) {
	tri := func(nodes ...int32) *Mesh {
		m := &Mesh{Dim: 2, EPtr: []int32{0}, Coords: make([]geom.Point, 8)}
		for i := 0; i < len(nodes); i += 3 {
			addElem(m, Tri3, nodes[i:i+3]...)
		}
		return m
	}
	cases := map[string]*Mesh{
		// Edge 0-1 is shared by three triangles and 2-3 by four: the
		// 1st and 2nd occurrences pair, the 3rd and 4th pair, and an odd
		// occurrence out is neither a boundary facet nor a dual edge.
		"three on one facet": tri(0, 1, 2, 1, 0, 3, 0, 4, 1),
		"four on one facet":  tri(2, 3, 0, 3, 2, 1, 2, 3, 4, 5, 3, 2),
		// A triangle repeating a node has two equal edges, which pair
		// with each other (a self-loop the dual graph drops), and a
		// degenerate third edge that is a boundary facet.
		"repeated node": tri(0, 0, 1, 0, 1, 2),
		"collapsed":     tri(3, 3, 3),
		// Isolated nodes 5..7 own no facet.
		"isolated nodes": tri(0, 1, 2, 2, 1, 3),
		"sparse ids":     tri(7, 2, 5),
	}
	for name, m := range cases {
		t.Run(name, func(t *testing.T) {
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			checkFacets(t, m)
		})
	}
}

// decodeMesh builds a small mesh from fuzz bytes: a dimension, a node
// count, then element records of one type byte and that type's node
// bytes (taken modulo the node count, so ids repeat freely). Bit 0 of
// the type byte picks the type; when bit 1 is set, facet byte>>2 of the
// element (modulo its facet count) joins the contact surface. It
// returns nil when the bytes hold no node count.
func decodeMesh(data []byte) *Mesh {
	if len(data) < 2 {
		return nil
	}
	m := &Mesh{Dim: 2 + int(data[0]&1), EPtr: []int32{0}}
	m.Coords = make([]geom.Point, 1+int(data[1]%24))
	types := [2][2]ElemType{{Tri3, Quad4}, {Tet4, Hex8}}
	for p := 2; p < len(data); {
		tb := data[p]
		t := types[m.Dim-2][tb&1]
		p++
		if p+t.NumNodes() > len(data) {
			break
		}
		for _, b := range data[p : p+t.NumNodes()] {
			m.ENodes = append(m.ENodes, int32(int(b)%len(m.Coords)))
		}
		p += t.NumNodes()
		m.Types = append(m.Types, t)
		m.EPtr = append(m.EPtr, int32(len(m.ENodes)))
		if tb&2 != 0 {
			e := m.NumElems() - 1
			s := SurfaceElem{Elem: int32(e)}
			for _, li := range t.Faces()[int(tb>>2)%len(t.Faces())] {
				s.Nodes = append(s.Nodes, m.ElemNodes(e)[li])
			}
			m.Surface = append(m.Surface, s)
		}
	}
	return m
}

// FuzzBoundaryFacets checks BoundaryFacets and DualGraph against the
// map-based references on small meshes with arbitrary connectivity:
// repeated node ids within an element, facets shared by any number of
// elements, and nodes no element uses.
func FuzzBoundaryFacets(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 1, 2, 1, 1, 2, 3, 0, 3})
	f.Add([]byte{1, 5, 0, 0, 1, 2, 3, 0, 1, 2, 3, 4, 0, 0, 0, 1, 2})
	f.Add([]byte{1, 11, 1, 0, 1, 2, 3, 4, 5, 6, 7, 1, 4, 5, 6, 7, 8, 9, 10, 11, 0, 4, 5, 6, 8})
	f.Add([]byte{1, 8, 1, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeMesh(data)
		if m == nil || m.Validate() != nil {
			return
		}
		checkFacets(t, m)
	})
}

// removeElems returns m without the elements dead, listed in ascending
// order. Its nodes stay, used or not.
func removeElems(m *Mesh, dead []int32) *Mesh {
	out := &Mesh{Dim: m.Dim, Coords: m.Coords, EPtr: []int32{0}}
	for e := 0; e < m.NumElems(); e++ {
		if len(dead) > 0 && int(dead[0]) == e {
			dead = dead[1:]
			continue
		}
		addElem(out, m.Types[e], m.ElemNodes(e)...)
	}
	return out
}

// FuzzFacetsErode erodes the facet counts of a decoded mesh through a
// sequence of random alive masks, drawn from the seed, and requires the
// kept boundary to equal refBoundaryFacets of what remains of the mesh
// after every step.
func FuzzFacetsErode(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 1, 2, 1, 1, 2, 3, 0, 3}, int64(1))
	f.Add([]byte{0, 5, 0, 0, 1, 2, 0, 1, 0, 3, 0, 0, 4, 1, 0, 2, 3, 0}, int64(2))
	f.Add([]byte{1, 11, 1, 0, 1, 2, 3, 4, 5, 6, 7, 1, 4, 5, 6, 7, 8, 9, 10, 11, 0, 4, 5, 6, 8}, int64(3))
	f.Add([]byte{1, 9, 0, 0, 1, 2, 3, 0, 1, 2, 4, 0, 1, 3, 4, 0, 2, 3, 4, 0, 5, 6, 7, 8, 0, 1, 2, 3}, int64(4))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		m := decodeMesh(data)
		if m == nil || m.Validate() != nil {
			return
		}
		fc := m.CountFacets()
		rng := rand.New(rand.NewSource(seed))
		for step := 0; m.NumElems() > 0; step++ {
			var dead []int32
			for e := 0; e < m.NumElems(); e++ {
				if rng.Intn(3) == 0 {
					dead = append(dead, int32(e))
				}
			}
			fc.Erode(m, dead)
			m = removeElems(m, dead)
			if got, want := fc.Boundary(m), refBoundaryFacets(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: kept boundary differs from refBoundaryFacets:\n got %v\nwant %v", step, head(got), head(want))
			}
		}
	})
}
