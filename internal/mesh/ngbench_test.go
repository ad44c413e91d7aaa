package mesh_test

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	. "repro/internal/mesh"
	"repro/internal/sim"
)

// blockMesh returns an nx x ny x nz structured block of hexahedra, or
// of tetrahedra with each hexahedron split into six.
func blockMesh(nx, ny, nz int, tets bool) *Mesh {
	m := &Mesh{Dim: 3, EPtr: []int32{0}}
	id := func(x, y, z int) int32 { return int32(z*(ny+1)*(nx+1) + y*(nx+1) + x) }
	for z := 0; z <= nz; z++ {
		for y := 0; y <= ny; y++ {
			for x := 0; x <= nx; x++ {
				m.Coords = append(m.Coords, geom.P3(float64(x), float64(y), float64(z)))
			}
		}
	}
	split := [6][4]int{{0, 1, 2, 6}, {0, 2, 3, 6}, {0, 3, 7, 6}, {0, 7, 4, 6}, {0, 4, 5, 6}, {0, 5, 1, 6}}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				corners := [8]int32{
					id(x, y, z), id(x+1, y, z), id(x+1, y+1, z), id(x, y+1, z),
					id(x, y, z+1), id(x+1, y, z+1), id(x+1, y+1, z+1), id(x, y+1, z+1),
				}
				if !tets {
					m.Types = append(m.Types, Hex8)
					m.ENodes = append(m.ENodes, corners[:]...)
					m.EPtr = append(m.EPtr, int32(len(m.ENodes)))
					continue
				}
				for _, t := range split {
					m.Types = append(m.Types, Tet4)
					m.ENodes = append(m.ENodes, corners[t[0]], corners[t[1]], corners[t[2]], corners[t[3]])
					m.EPtr = append(m.EPtr, int32(len(m.ENodes)))
				}
			}
		}
	}
	return m
}

var sinkGraph *graph.Graph

func benchNodalGraph(b *testing.B, m *Mesh) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph = m.NodalGraph(NodalGraphOptions{NCon: 2, ContactEdgeWeight: 5})
	}
}

// The benchmark block is 30x30x8: 43,200 tets or 7,200 hexahedra.
func BenchmarkNodalGraphTets(b *testing.B) { benchNodalGraph(b, blockMesh(30, 30, 8, true)) }

func BenchmarkNodalGraphHexes(b *testing.B) { benchNodalGraph(b, blockMesh(30, 30, 8, false)) }

// BenchmarkNodalGraphPaper times the graph on the first snapshot of
// perfbench's table1_fixed window: the paper scene at Refine 1 after
// 100 of 400 steps (~17.6k nodes, ~87k tetrahedra).
func BenchmarkNodalGraphPaper(b *testing.B) {
	cfg := sim.PaperConfig()
	cfg.Scene.Refine = 1
	cfg.Steps, cfg.Snapshots = 400, 100
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < 100; t++ {
		s.Step()
	}
	benchNodalGraph(b, s.Snapshot(0).Mesh)
}

// BenchmarkNodalGraphFrom derives the graph of the table1_fixed
// window's second snapshot from the first one's, in steady state: the
// workspace's buffers have grown before the timer starts.
func BenchmarkNodalGraphFrom(b *testing.B) {
	cfg := sim.PaperConfig()
	cfg.Scene.Refine = 1
	cfg.Steps, cfg.Snapshots = 400, 100
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < 100; t++ {
		s.Step()
	}
	prev := s.Snapshot(0)
	for t := 0; t < 4; t++ {
		s.Step()
	}
	cur := s.Snapshot(1)
	idx := map[int64]int32{}
	for v, id := range prev.NodeID {
		idx[id] = int32(v)
	}
	old := make([]int32, len(cur.NodeID))
	for v, id := range cur.NodeID {
		old[v] = idx[id]
	}
	opt := NodalGraphOptions{NCon: 2, ContactEdgeWeight: 5}
	pg := prev.Mesh.NodalGraph(opt)
	var ws NodalWorkspace
	for i := 0; i < 2; i++ {
		if _, ok := cur.Mesh.NodalGraphFrom(prev.Mesh, pg, old, opt, &ws); !ok {
			b.Fatal("derivation refused")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph, _ = cur.Mesh.NodalGraphFrom(prev.Mesh, pg, old, opt, &ws)
	}
}

var sinkFacets []SurfaceElem

func benchBoundaryFacets(b *testing.B, m *Mesh) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFacets = m.BoundaryFacets()
	}
}

func BenchmarkBoundaryFacetsTets(b *testing.B) { benchBoundaryFacets(b, blockMesh(30, 30, 8, true)) }

func BenchmarkBoundaryFacetsHexes(b *testing.B) { benchBoundaryFacets(b, blockMesh(30, 30, 8, false)) }

func BenchmarkDualGraphTets(b *testing.B) {
	m := blockMesh(30, 30, 8, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph = m.DualGraph()
	}
}
