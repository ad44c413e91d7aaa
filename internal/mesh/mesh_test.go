package mesh

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geom"
)

// unitQuadMesh builds a 2x2 quad grid (9 nodes, 4 quads) in 2D:
//
//	6-7-8
//	3-4-5
//	0-1-2
func unitQuadMesh() *Mesh {
	m := &Mesh{Dim: 2}
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			m.Coords = append(m.Coords, geom.P2(float64(x), float64(y)))
		}
	}
	addQuad := func(a, b, c, d int32) {
		m.Types = append(m.Types, Quad4)
		m.EPtr = append(m.EPtr, int32(len(m.ENodes))+4)
		m.ENodes = append(m.ENodes, a, b, c, d)
	}
	m.EPtr = []int32{0}
	addQuad(0, 1, 4, 3)
	addQuad(1, 2, 5, 4)
	addQuad(3, 4, 7, 6)
	addQuad(4, 5, 8, 7)
	return m
}

// unitHexMesh builds a single hexahedron.
func unitHexMesh() *Mesh {
	m := &Mesh{Dim: 3}
	for z := 0; z < 2; z++ {
		for y := 0; y < 2; y++ {
			for x := 0; x < 2; x++ {
				m.Coords = append(m.Coords, geom.P3(float64(x), float64(y), float64(z)))
			}
		}
	}
	m.Types = []ElemType{Hex8}
	m.EPtr = []int32{0, 8}
	// Local hex ordering: bottom 0,1,2,3 CCW then top 4,5,6,7.
	m.ENodes = []int32{0, 1, 3, 2, 4, 5, 7, 6}
	return m
}

func TestElemTypeTables(t *testing.T) {
	for _, et := range []ElemType{Tri3, Quad4, Tet4, Hex8} {
		edges := et.Edges()
		faces := et.Faces()
		if len(edges) == 0 || len(faces) == 0 {
			t.Fatalf("%v: missing topology tables", et)
		}
		for _, e := range edges {
			if e[0] >= et.NumNodes() || e[1] >= et.NumNodes() {
				t.Errorf("%v: edge %v out of range", et, e)
			}
		}
		for _, f := range faces {
			for _, li := range f {
				if li >= et.NumNodes() {
					t.Errorf("%v: face %v out of range", et, f)
				}
			}
		}
	}
	wantEdges := map[ElemType]int{Tri3: 3, Quad4: 4, Tet4: 6, Hex8: 12}
	for et, n := range wantEdges {
		if len(et.Edges()) != n {
			t.Errorf("%v: %d edges, want %d", et, len(et.Edges()), n)
		}
	}
	wantFaces := map[ElemType]int{Tri3: 3, Quad4: 4, Tet4: 4, Hex8: 6}
	for et, n := range wantFaces {
		if len(et.Faces()) != n {
			t.Errorf("%v: %d faces, want %d", et, len(et.Faces()), n)
		}
	}
}

func TestValidateGood(t *testing.T) {
	for _, m := range []*Mesh{unitQuadMesh(), unitHexMesh()} {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestValidateBad(t *testing.T) {
	m := unitQuadMesh()
	m.ENodes[0] = 99
	if err := m.Validate(); err == nil {
		t.Error("accepted out-of-range node")
	}
	m2 := unitQuadMesh()
	m2.Types[0] = Hex8 // 3D element in 2D mesh
	if err := m2.Validate(); err == nil {
		t.Error("accepted 3D element in 2D mesh")
	}
	m3 := unitQuadMesh()
	m3.Dim = 7
	if err := m3.Validate(); err == nil {
		t.Error("accepted dim 7")
	}
}

func TestNodalGraphQuadGrid(t *testing.T) {
	m := unitQuadMesh()
	g := m.NodalGraph(NodalGraphOptions{NCon: 1})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NV() != 9 {
		t.Fatalf("NV = %d", g.NV())
	}
	// 2x2 quad grid: 12 unique mesh edges.
	if g.NE() != 12 {
		t.Fatalf("NE = %d, want 12", g.NE())
	}
	// Center node 4 touches 4 edges.
	if g.Degree(4) != 4 {
		t.Errorf("deg(4) = %d, want 4", g.Degree(4))
	}
	// Corner node 0 touches 2 edges.
	if g.Degree(0) != 2 {
		t.Errorf("deg(0) = %d, want 2", g.Degree(0))
	}
}

func TestNodalGraphContactWeights(t *testing.T) {
	m := unitQuadMesh()
	// Mark the bottom edge (nodes 0,1,2) as a contact surface.
	m.Surface = []SurfaceElem{
		{Nodes: []int32{0, 1}, Elem: 0},
		{Nodes: []int32{1, 2}, Elem: 1},
	}
	g := m.NodalGraph(DefaultNodalOptions())
	if g.NCon != 2 {
		t.Fatalf("NCon = %d", g.NCon)
	}
	// Contact nodes get w2 = 1, others 0.
	for _, v := range []int{0, 1, 2} {
		if g.Weight(v, 1) != 1 {
			t.Errorf("node %d w2 = %d, want 1", v, g.Weight(v, 1))
		}
	}
	for _, v := range []int{3, 4, 5, 6, 7, 8} {
		if g.Weight(v, 1) != 0 {
			t.Errorf("node %d w2 = %d, want 0", v, g.Weight(v, 1))
		}
	}
	// Edge {0,1} is contact-contact: weight 5. Edge {0,3} is not: weight 1.
	checkEdge := func(u, v int, want int32) {
		t.Helper()
		for i, w := range g.Neighbors(u) {
			if int(w) == v {
				if got := g.EdgeWeights(u)[i]; got != want {
					t.Errorf("edge {%d,%d} weight = %d, want %d", u, v, got, want)
				}
				return
			}
		}
		t.Errorf("edge {%d,%d} missing", u, v)
	}
	checkEdge(0, 1, 5)
	checkEdge(1, 2, 5)
	checkEdge(0, 3, 1)
	checkEdge(4, 5, 1)
}

func TestContactNodes(t *testing.T) {
	m := unitQuadMesh()
	m.Surface = []SurfaceElem{{Nodes: []int32{2, 5}, Elem: 1}, {Nodes: []int32{5, 8}, Elem: 3}}
	got := m.ContactNodes()
	want := []int32{2, 5, 8}
	if len(got) != len(want) {
		t.Fatalf("ContactNodes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ContactNodes = %v, want %v", got, want)
		}
	}
}

func TestDualGraphQuadGrid(t *testing.T) {
	m := unitQuadMesh()
	d := m.DualGraph()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NV() != 4 {
		t.Fatalf("NV = %d", d.NV())
	}
	// 2x2 grid of quads: 4 shared interior edges.
	if d.NE() != 4 {
		t.Fatalf("NE = %d, want 4", d.NE())
	}
	for e := 0; e < 4; e++ {
		if d.Degree(e) != 2 {
			t.Errorf("dual deg(%d) = %d, want 2", e, d.Degree(e))
		}
	}
}

func TestDualGraphHexPair(t *testing.T) {
	// Two hexes sharing a face.
	m := &Mesh{Dim: 3}
	for z := 0; z < 2; z++ {
		for y := 0; y < 2; y++ {
			for x := 0; x < 3; x++ {
				m.Coords = append(m.Coords, geom.P3(float64(x), float64(y), float64(z)))
			}
		}
	}
	id := func(x, y, z int) int32 { return int32(z*6 + y*3 + x) }
	hex := func(x int) []int32 {
		return []int32{
			id(x, 0, 0), id(x+1, 0, 0), id(x+1, 1, 0), id(x, 1, 0),
			id(x, 0, 1), id(x+1, 0, 1), id(x+1, 1, 1), id(x, 1, 1),
		}
	}
	m.Types = []ElemType{Hex8, Hex8}
	m.EPtr = []int32{0, 8, 16}
	m.ENodes = append(hex(0), hex(1)...)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	d := m.DualGraph()
	if d.NV() != 2 || d.NE() != 1 {
		t.Fatalf("dual NV=%d NE=%d, want 2, 1", d.NV(), d.NE())
	}
}

func TestBoundaryFacets(t *testing.T) {
	m := unitQuadMesh()
	bf := m.BoundaryFacets()
	// 2x2 quad grid: 8 boundary edges.
	if len(bf) != 8 {
		t.Fatalf("boundary facets = %d, want 8", len(bf))
	}
	hex := unitHexMesh()
	bf3 := hex.BoundaryFacets()
	if len(bf3) != 6 {
		t.Fatalf("hex boundary facets = %d, want 6", len(bf3))
	}
}

func TestSurfaceBoxAndMeshBox(t *testing.T) {
	m := unitQuadMesh()
	m.Surface = []SurfaceElem{{Nodes: []int32{0, 2}, Elem: 0}}
	b := m.SurfaceBox(0)
	if b.Min != geom.P2(0, 0) || b.Max != geom.P2(2, 0) {
		t.Errorf("SurfaceBox = %v", b)
	}
	mb := m.Box()
	if mb.Min != geom.P2(0, 0) || mb.Max != geom.P2(2, 2) {
		t.Errorf("Box = %v", mb)
	}
}

func TestRoundTripIO(t *testing.T) {
	m := unitQuadMesh()
	m.Surface = []SurfaceElem{{Nodes: []int32{0, 1}, Elem: 0}, {Nodes: []int32{1, 2}, Elem: -1}}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMesh(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != m.Dim || got.NumNodes() != m.NumNodes() || got.NumElems() != m.NumElems() {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i, p := range m.Coords {
		if got.Coords[i] != p {
			t.Fatalf("coord %d: %v != %v", i, got.Coords[i], p)
		}
	}
	for e := 0; e < m.NumElems(); e++ {
		gn, wn := got.ElemNodes(e), m.ElemNodes(e)
		for i := range wn {
			if gn[i] != wn[i] {
				t.Fatalf("elem %d nodes %v != %v", e, gn, wn)
			}
		}
	}
	if len(got.Surface) != 2 || got.Surface[1].Elem != -1 {
		t.Fatalf("surface round trip: %+v", got.Surface)
	}
}

func TestReadMeshRejectsGarbage(t *testing.T) {
	if _, err := ReadMesh(bytes.NewReader([]byte("not a mesh at all........"))); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := ReadMesh(bytes.NewReader(nil)); err == nil {
		t.Error("accepted empty input")
	}
	// Truncated valid prefix.
	m := unitQuadMesh()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadMesh(bytes.NewReader(trunc)); err == nil {
		t.Error("accepted truncated stream")
	}
}

func TestClone(t *testing.T) {
	m := unitQuadMesh()
	m.Surface = []SurfaceElem{{Nodes: []int32{0, 1}, Elem: 0}, {Nodes: []int32{1, 4}, Elem: 1}}
	c := m.Clone()
	c.Coords[0] = geom.P2(99, 99)
	c.ENodes[0] = 5
	c.Surface[0].Nodes[0] = 7
	if m.Coords[0] == c.Coords[0] || m.ENodes[0] == c.ENodes[0] || m.Surface[0].Nodes[0] == 7 {
		t.Error("Clone shares storage with original")
	}
	// The clone's facets share one node buffer; appending to one must
	// not overwrite the next.
	_ = append(c.Surface[0].Nodes, 9)
	if c.Surface[1].Nodes[0] != 1 {
		t.Error("appending to a cloned facet overwrote the next one")
	}
}

func TestFileRoundTrip(t *testing.T) {
	m := unitHexMesh()
	path := t.TempDir() + "/m.mesh"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 8 || got.NumElems() != 1 {
		t.Fatalf("got %d nodes %d elems", got.NumNodes(), got.NumElems())
	}
}

func TestElemMeasureKnown(t *testing.T) {
	q := unitQuadMesh() // unit quads
	for e := 0; e < q.NumElems(); e++ {
		if got := q.ElemMeasure(e); got < 0.999 || got > 1.001 {
			t.Errorf("quad %d measure = %v, want 1", e, got)
		}
	}
	h := unitHexMesh() // unit hex
	if got := h.ElemMeasure(0); got < 0.999 || got > 1.001 {
		t.Errorf("hex measure = %v, want 1", got)
	}
	if got := h.TotalMeasure(); got < 0.999 || got > 1.001 {
		t.Errorf("total measure = %v", got)
	}
	if h.CountInverted() != 0 {
		t.Error("unit hex counted as inverted")
	}
}

func TestElemMeasureDetectsInversion(t *testing.T) {
	m := &Mesh{
		Dim:    3,
		Coords: []geom.Point{geom.P3(0, 0, 0), geom.P3(1, 0, 0), geom.P3(0, 1, 0), geom.P3(0, 0, 1)},
		Types:  []ElemType{Tet4},
		EPtr:   []int32{0, 4},
		ENodes: []int32{0, 1, 2, 3},
	}
	if v := m.ElemMeasure(0); v <= 0 {
		t.Fatalf("regular tet measure %v", v)
	}
	// Swap two nodes: inverted.
	m.ENodes[0], m.ENodes[1] = m.ENodes[1], m.ENodes[0]
	if v := m.ElemMeasure(0); v >= 0 {
		t.Fatalf("inverted tet measure %v, want negative", v)
	}
	if m.CountInverted() != 1 {
		t.Error("inversion not counted")
	}
}

func TestTriAreaSigned2D(t *testing.T) {
	m := &Mesh{
		Dim:    2,
		Coords: []geom.Point{geom.P2(0, 0), geom.P2(1, 0), geom.P2(0, 1)},
		Types:  []ElemType{Tri3},
		EPtr:   []int32{0, 3},
		ENodes: []int32{0, 1, 2},
	}
	if v := m.ElemMeasure(0); v < 0.499 || v > 0.501 {
		t.Errorf("CCW tri area %v, want 0.5", v)
	}
	m.ENodes[1], m.ENodes[2] = m.ENodes[2], m.ENodes[1]
	if v := m.ElemMeasure(0); v > -0.499 {
		t.Errorf("CW tri area %v, want -0.5", v)
	}
}

func TestValidateUnknownElemType(t *testing.T) {
	for _, tc := range []struct {
		name string
		mesh *Mesh
	}{{"2d", unitQuadMesh()}, {"3d", unitHexMesh()}} {
		t.Run(tc.name, func(t *testing.T) {
			tc.mesh.Types[0] = ElemType(7)
			err := tc.mesh.Validate()
			if err == nil || !strings.Contains(err.Error(), "unknown type") {
				t.Fatalf("Validate = %v, want an unknown-type error", err)
			}
		})
	}
}
