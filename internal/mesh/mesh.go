// Package mesh provides the finite-element mesh substrate: nodes with
// coordinates, mixed linear elements (triangles, quadrilaterals,
// tetrahedra, hexahedra), designated contact surface elements, and the
// graph constructions the partitioners operate on (the nodal graph and
// the dual graph of Section 2 of the paper).
package mesh

import (
	"fmt"

	"repro/internal/geom"
)

// ElemType identifies a linear element topology.
type ElemType uint8

const (
	Tri3  ElemType = iota // 2D triangle, 3 nodes
	Quad4                 // 2D quadrilateral, 4 nodes
	Tet4                  // 3D tetrahedron, 4 nodes
	Hex8                  // 3D hexahedron, 8 nodes
)

// NumNodes returns the node count of the element type.
func (t ElemType) NumNodes() int {
	switch t {
	case Tri3:
		return 3
	case Quad4:
		return 4
	case Tet4:
		return 4
	case Hex8:
		return 8
	}
	panic(fmt.Sprintf("mesh: unknown element type %d", t))
}

// Dim returns the spatial dimension the element type lives in.
func (t ElemType) Dim() int {
	if t == Tri3 || t == Quad4 {
		return 2
	}
	return 3
}

func (t ElemType) String() string {
	switch t {
	case Tri3:
		return "tri3"
	case Quad4:
		return "quad4"
	case Tet4:
		return "tet4"
	case Hex8:
		return "hex8"
	}
	return fmt.Sprintf("ElemType(%d)", uint8(t))
}

// edgeTable[t] lists local node index pairs forming the element's edges.
var edgeTable = [...][][2]int{
	Tri3:  {{0, 1}, {1, 2}, {2, 0}},
	Quad4: {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	Tet4:  {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
	Hex8: {
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, // bottom
		{4, 5}, {5, 6}, {6, 7}, {7, 4}, // top
		{0, 4}, {1, 5}, {2, 6}, {3, 7}, // verticals
	},
}

// faceTable[t] lists local node index tuples of the element's facets:
// edges in 2D, faces in 3D. Used for dual-graph and boundary extraction.
var faceTable = [len(edgeTable)][][]int{
	Tri3:  {{0, 1}, {1, 2}, {2, 0}},
	Quad4: {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	Tet4:  {{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}},
	Hex8: {
		{0, 1, 2, 3}, // bottom (z-)
		{4, 5, 6, 7}, // top (z+)
		{0, 1, 5, 4}, // y-
		{2, 3, 7, 6}, // y+
		{1, 2, 6, 5}, // x+
		{3, 0, 4, 7}, // x-
	},
}

// known reports whether t is one of the element types above; Edges,
// Faces and NumNodes panic on any other value.
func (t ElemType) known() bool { return int(t) < len(edgeTable) }

// Edges returns the local node index pairs of the element type's edges.
func (t ElemType) Edges() [][2]int { return edgeTable[t] }

// Faces returns the local node index tuples of the element type's facets.
func (t ElemType) Faces() [][]int { return faceTable[t] }

// SurfaceElem is a contact surface element: a facet (an edge in 2D, a
// triangle or quad face in 3D) that the application has flagged for
// contact search, together with the volume element it belongs to.
type SurfaceElem struct {
	Nodes []int32 // node ids of the facet
	Elem  int32   // owning volume element, or -1
}

// Mesh is a finite-element mesh. Node n has coordinates Coords[n].
// Element e has type Types[e] and nodes ENodes[EPtr[e]:EPtr[e+1]].
// Surface lists the contact surface elements (Section 2: "we assume
// that these elements have been identified as such by the application").
type Mesh struct {
	Dim     int
	Coords  []geom.Point
	Types   []ElemType
	EPtr    []int32
	ENodes  []int32
	Surface []SurfaceElem
}

// NumNodes returns the number of mesh nodes.
func (m *Mesh) NumNodes() int { return len(m.Coords) }

// NumElems returns the number of volume elements.
func (m *Mesh) NumElems() int { return len(m.Types) }

// ElemNodes returns the node ids of element e (do not modify).
func (m *Mesh) ElemNodes(e int) []int32 { return m.ENodes[m.EPtr[e]:m.EPtr[e+1]] }

// ContactNodes returns the sorted list of node ids that belong to at
// least one surface element (the paper's "contact nodes").
func (m *Mesh) ContactNodes() []int32 {
	mark := make([]bool, m.NumNodes())
	out := make([]int32, 0, m.markContact(mark))
	for n, ok := range mark {
		if ok {
			out = append(out, int32(n))
		}
	}
	return out
}

// markContact sets mark[n] for every node n of a surface element (the
// contact nodes) and returns how many distinct nodes it set. mark
// holds one entry per node and must start all false.
func (m *Mesh) markContact(mark []bool) int {
	count := 0
	for _, s := range m.Surface {
		for _, n := range s.Nodes {
			if !mark[n] {
				mark[n] = true
				count++
			}
		}
	}
	return count
}

// Box returns the bounding box of all mesh nodes.
func (m *Mesh) Box() geom.AABB { return geom.BoxOf(m.Coords) }

// SurfaceBox returns the bounding box of surface element i.
func (m *Mesh) SurfaceBox(i int) geom.AABB {
	b := geom.Empty()
	for _, n := range m.Surface[i].Nodes {
		b = b.Extend(m.Coords[n])
	}
	return b
}

// Validate checks structural invariants: CSR bounds, known element
// types, node ids in range, element dimensionality matching the mesh,
// and surface facets with plausible node counts.
func (m *Mesh) Validate() error {
	n := m.NumNodes()
	if m.Dim != 2 && m.Dim != 3 {
		return fmt.Errorf("mesh: dim = %d", m.Dim)
	}
	if len(m.EPtr) != m.NumElems()+1 {
		return fmt.Errorf("mesh: len(EPtr) = %d, want %d", len(m.EPtr), m.NumElems()+1)
	}
	if m.NumElems() > 0 && (m.EPtr[0] != 0 || int(m.EPtr[m.NumElems()]) != len(m.ENodes)) {
		return fmt.Errorf("mesh: EPtr bounds wrong")
	}
	for e := 0; e < m.NumElems(); e++ {
		t := m.Types[e]
		if !t.known() {
			return fmt.Errorf("mesh: element %d has unknown type %v", e, t)
		}
		if t.Dim() != m.Dim {
			return fmt.Errorf("mesh: element %d type %v in %dD mesh", e, t, m.Dim)
		}
		nodes := m.ElemNodes(e)
		if len(nodes) != t.NumNodes() {
			return fmt.Errorf("mesh: element %d has %d nodes, want %d", e, len(nodes), t.NumNodes())
		}
		for _, v := range nodes {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("mesh: element %d references node %d out of [0,%d)", e, v, n)
			}
		}
	}
	wantFacet := 2
	if m.Dim == 3 {
		wantFacet = 3 // 3 or 4
	}
	for i, s := range m.Surface {
		if len(s.Nodes) < wantFacet || len(s.Nodes) > wantFacet+1 {
			return fmt.Errorf("mesh: surface element %d has %d nodes", i, len(s.Nodes))
		}
		for _, v := range s.Nodes {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("mesh: surface element %d references node %d out of [0,%d)", i, v, n)
			}
		}
		if s.Elem < -1 || int(s.Elem) >= m.NumElems() {
			return fmt.Errorf("mesh: surface element %d references element %d", i, s.Elem)
		}
	}
	return nil
}

// Clone returns a deep copy of the mesh.
func (m *Mesh) Clone() *Mesh {
	c := &Mesh{
		Dim:    m.Dim,
		Coords: append([]geom.Point(nil), m.Coords...),
		Types:  append([]ElemType(nil), m.Types...),
		EPtr:   append([]int32(nil), m.EPtr...),
		ENodes: append([]int32(nil), m.ENodes...),
	}
	n := 0
	for _, s := range m.Surface {
		n += len(s.Nodes)
	}
	// One buffer holds every facet's nodes; capped sub-slices keep an
	// append to one facet from running into the next.
	buf := make([]int32, 0, n)
	c.Surface = make([]SurfaceElem, len(m.Surface))
	for i, s := range m.Surface {
		lo := len(buf)
		buf = append(buf, s.Nodes...)
		c.Surface[i] = SurfaceElem{Nodes: buf[lo:len(buf):len(buf)], Elem: s.Elem}
	}
	return c
}
