// Diagonal: the Figure 2 phenomenon, end to end. A partition whose
// boundary runs diagonally through the contact points forces the
// decision tree into a fine staircase of rectangles; the MCML+DT
// reshaping step (guidance tree + majority reassignment + G'
// refinement) straightens the boundary and shrinks the tree, at a
// small cost in edge cut.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dtree"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/meshgen"
	"repro/internal/metrics"
	"repro/internal/partition"
)

func main() {
	log.SetFlags(0)

	// A 2D quad sheet whose whole bottom half is a contact surface,
	// so the contact points form a dense 2D region.
	const n = 48
	m, err := meshgen.StructuredQuadGrid(meshgen.Grid2DSpec{Nx: n, Ny: n, H: geom.P2(1, 1)})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range m.BoundaryFacets() {
		if m.Coords[f.Nodes[0]][1] == 0 && m.Coords[f.Nodes[1]][1] == 0 {
			m.Surface = append(m.Surface, f)
		}
	}
	// Designate every element edge in the bottom half as surface too,
	// giving a thick band of contact points.
	for e := 0; e < m.NumElems(); e++ {
		nodes := m.ElemNodes(e)
		cy := (m.Coords[nodes[0]][1] + m.Coords[nodes[2]][1]) / 2
		if cy < n/3 {
			m.Surface = append(m.Surface, mesh.SurfaceElem{Nodes: []int32{nodes[0], nodes[1]}, Elem: int32(e)})
		}
	}
	fmt.Printf("mesh: %d nodes, %d contact nodes\n\n", m.NumNodes(), len(m.ContactNodes()))

	// Hand-build a deliberately diagonal 2-way partition.
	diagonal := make([]int32, m.NumNodes())
	for v := range diagonal {
		p := m.Coords[v]
		if p[1] > p[0] {
			diagonal[v] = 1
		}
	}
	g := m.NodalGraph(mesh.DefaultNodalOptions())
	contacts := m.ContactNodes()
	descFor := func(labels []int32) *dtree.Tree {
		pts := make([]geom.Point, len(contacts))
		cl := make([]int32, len(contacts))
		for i, c := range contacts {
			pts[i] = m.Coords[c]
			cl[i] = labels[c]
		}
		t, err := dtree.Build(pts, cl, 2, 2, dtree.Options{Mode: dtree.Descriptor})
		if err != nil {
			log.Fatal(err)
		}
		return t
	}

	dt := descFor(diagonal)
	fmt.Printf("hand-made diagonal partition:\n")
	fmt.Printf("  edge cut %5d, comm volume %5d, descriptor tree %4d nodes\n\n",
		partition.EdgeCut(g, diagonal), metrics.CommVolume(g, diagonal, 2), dt.NumNodes())

	// Now let the full MCML+DT pipeline partition the same mesh: the
	// reshaping step produces axis-parallel boundaries and a small tree.
	d, err := core.Decompose(m, core.Config{K: 2, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	s := d.Stats()
	fmt.Printf("MCML+DT partition (with reshaping):\n")
	fmt.Printf("  edge cut %5d, comm volume %5d, descriptor tree %4d nodes\n\n",
		s.EdgeCut, s.FEComm, s.NTNodes)

	// And the ablation: same pipeline, reshaping disabled.
	raw, err := core.Decompose(m, core.Config{K: 2, Seed: 3, SkipReshape: true})
	if err != nil {
		log.Fatal(err)
	}
	rs := raw.Stats()
	fmt.Printf("MCML+DT without reshaping (ablation):\n")
	fmt.Printf("  edge cut %5d, comm volume %5d, descriptor tree %4d nodes\n\n",
		rs.EdgeCut, rs.FEComm, rs.NTNodes)

	fmt.Printf("The diagonal boundary needs a %dx larger tree than the reshaped\n",
		dt.NumNodes()/max(1, s.NTNodes))
	fmt.Println("partition — the cost the paper's Figure 2 illustrates.")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
