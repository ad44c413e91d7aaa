package graph

import (
	"math/rand"
	"testing"
)

// benchGraph builds a 3D-lattice-like random graph of n vertices.
func benchGraph(n, ncon int) *Graph {
	r := rand.New(rand.NewSource(1))
	b := NewBuilder(n, ncon)
	for v := 0; v < n; v++ {
		for j := 0; j < ncon; j++ {
			b.SetWeight(v, j, int32(1+r.Intn(3)))
		}
	}
	for v := 0; v < n; v++ {
		for d := 0; d < 6; d++ {
			u := r.Intn(n)
			if u != v {
				b.AddEdge(v, u, 1)
			}
		}
	}
	return b.Build()
}

func BenchmarkBuild50k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchGraph(50000, 2)
	}
}

func BenchmarkCollapse(b *testing.B) {
	g := benchGraph(50000, 2)
	r := rand.New(rand.NewSource(2))
	labels := make([]int32, g.NV())
	for v := range labels {
		labels[v] = int32(r.Intn(1000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Collapse(labels, 1000)
	}
}

func BenchmarkInduceHalf(b *testing.B) {
	g := benchGraph(50000, 2)
	vs := make([]int32, 0, g.NV()/2)
	for v := 0; v < g.NV(); v += 2 {
		vs = append(vs, int32(v))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Induce(vs)
	}
}

func BenchmarkComponents(b *testing.B) {
	g := benchGraph(50000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Components()
	}
}
