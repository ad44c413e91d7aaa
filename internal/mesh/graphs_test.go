package mesh_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	. "repro/internal/mesh"
)

// refNodalGraph is the sort-based construction NodalGraph replaced: it
// deduplicates packed (u,v) edge keys of every element and feeds them
// to graph.Builder. It is the reference NodalGraph must match byte for
// byte.
func refNodalGraph(m *Mesh, opt NodalGraphOptions) *graph.Graph {
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
	contact := make([]bool, m.NumNodes())
	for _, s := range m.Surface {
		for _, v := range s.Nodes {
			contact[v] = true
		}
	}
	b := graph.NewBuilder(m.NumNodes(), opt.NCon)
	for v := 0; v < m.NumNodes(); v++ {
		b.SetWeight(v, 0, opt.FEWeight)
		if opt.NCon >= 2 && contact[v] {
			b.SetWeight(v, 1, opt.ContactWeight)
		}
	}
	keys := make([]uint64, 0, m.NumElems()*6)
	for e := 0; e < m.NumElems(); e++ {
		nodes := m.ElemNodes(e)
		for _, pair := range m.Types[e].Edges() {
			u, v := nodes[pair[0]], nodes[pair[1]]
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			keys = append(keys, uint64(u)<<32|uint64(uint32(v)))
		}
	}
	slices.Sort(keys)
	var prev uint64 = ^uint64(0)
	for _, k := range keys {
		if k == prev {
			continue
		}
		prev = k
		u, v := int32(k>>32), int32(uint32(k))
		w := int32(1)
		if contact[u] && contact[v] {
			w = opt.ContactEdgeWeight
		}
		b.AddEdge(int(u), int(v), w)
	}
	return b.Build()
}

// gridMesh returns an nx x ny grid of quads, or of triangles with each
// quad split in two.
func gridMesh(nx, ny int, tris bool) *Mesh {
	m := &Mesh{Dim: 2, EPtr: []int32{0}}
	id := func(x, y int) int32 { return int32(y*(nx+1) + x) }
	for y := 0; y <= ny; y++ {
		for x := 0; x <= nx; x++ {
			m.Coords = append(m.Coords, geom.P2(float64(x), float64(y)))
		}
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			a, b, c, d := id(x, y), id(x+1, y), id(x+1, y+1), id(x, y+1)
			if tris {
				m.Types = append(m.Types, Tri3, Tri3)
				m.ENodes = append(m.ENodes, a, b, c)
				m.EPtr = append(m.EPtr, int32(len(m.ENodes)))
				m.ENodes = append(m.ENodes, a, c, d)
			} else {
				m.Types = append(m.Types, Quad4)
				m.ENodes = append(m.ENodes, a, b, c, d)
			}
			m.EPtr = append(m.EPtr, int32(len(m.ENodes)))
		}
	}
	return m
}

// starMesh is a fan of n triangles around node 0, so node 0's row is
// far longer than the insertion-sort cutoff.
func starMesh(n int) *Mesh {
	m := &Mesh{Dim: 2, EPtr: []int32{0}, Coords: []geom.Point{geom.P2(0, 0)}}
	for i := 0; i < n; i++ {
		m.Coords = append(m.Coords, geom.P2(float64(i), 1))
	}
	for i := 1; i <= n; i++ {
		m.Types = append(m.Types, Tri3)
		m.ENodes = append(m.ENodes, 0, int32(i), int32(i%n+1))
		m.EPtr = append(m.EPtr, int32(len(m.ENodes)))
	}
	return m
}

// scramble renumbers the nodes at random, collapses one node onto
// another in a few elements (repeated node ids), and flags the nodes of
// some element facets as contact surface.
func scramble(r *rand.Rand, m *Mesh, repeats, surfaces int) {
	perm := r.Perm(m.NumNodes())
	for i, v := range m.ENodes {
		m.ENodes[i] = int32(perm[v])
	}
	for i := 0; i < repeats; i++ {
		nodes := m.ElemNodes(r.Intn(m.NumElems()))
		nodes[r.Intn(len(nodes))] = nodes[r.Intn(len(nodes))]
	}
	for i := 0; i < surfaces; i++ {
		e := r.Intn(m.NumElems())
		face := m.Types[e].Faces()[0]
		s := SurfaceElem{Elem: int32(e)}
		for _, li := range face {
			s.Nodes = append(s.Nodes, m.ElemNodes(e)[li])
		}
		m.Surface = append(m.Surface, s)
	}
}

// nodalOptions are the option sets NodalGraph is checked under: the
// paper's, the defaults, one constraint, and three with odd weights.
var nodalOptions = []NodalGraphOptions{
	DefaultNodalOptions(),
	{},
	{NCon: 1},
	{NCon: 3, ContactEdgeWeight: 2, FEWeight: 4, ContactWeight: 7},
}

func TestNodalGraphMatchesReference(t *testing.T) {
	meshes := map[string]func() *Mesh{
		"tri3":  func() *Mesh { return gridMesh(9, 7, true) },
		"quad4": func() *Mesh { return gridMesh(9, 7, false) },
		"tet4":  func() *Mesh { return blockMesh(5, 4, 3, true) },
		"hex8":  func() *Mesh { return blockMesh(5, 4, 3, false) },
		"star":  func() *Mesh { return starMesh(1200) },
	}
	r := rand.New(rand.NewSource(3))
	for name, gen := range meshes {
		for _, variant := range []struct {
			name              string
			repeats, surfaces int
		}{{"plain", 0, 0}, {"contact", 0, 40}, {"repeated", 25, 40}} {
			m := gen()
			if variant.name != "plain" {
				scramble(r, m, variant.repeats, variant.surfaces)
			}
			for i, opt := range nodalOptions {
				t.Run(fmt.Sprintf("%s/%s/opt%d", name, variant.name, i), func(t *testing.T) {
					got, want := m.NodalGraph(opt), refNodalGraph(m, opt)
					if err := got.Validate(); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("NodalGraph differs from refNodalGraph")
					}
				})
			}
		}
	}
}

// FuzzNodalGraph checks NodalGraph against refNodalGraph on small
// meshes with arbitrary connectivity (see decodeMesh): repeated node
// ids within an element, edges shared by any number of elements,
// isolated nodes, and contact facets anywhere.
func FuzzNodalGraph(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 1, 2, 3, 1, 2, 3, 0, 3})
	f.Add([]byte{0, 5, 2, 0, 0, 1, 7, 1, 2, 3, 4})
	f.Add([]byte{1, 5, 6, 0, 1, 2, 3, 2, 1, 2, 3, 4, 0, 0, 0, 1, 2})
	f.Add([]byte{1, 11, 15, 0, 1, 2, 3, 4, 5, 6, 7, 19, 4, 5, 6, 7, 8, 9, 10, 11, 2, 4, 5, 6, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeMesh(data)
		if m == nil || m.Validate() != nil {
			return
		}
		for i, opt := range nodalOptions {
			if got, want := m.NodalGraph(opt), refNodalGraph(m, opt); !reflect.DeepEqual(got, want) {
				t.Fatalf("opt%d: NodalGraph differs from refNodalGraph:\n got %+v\nwant %+v", i, got, want)
			}
		}
	})
}
