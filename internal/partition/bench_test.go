package partition

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sim"
)

func BenchmarkBisect(b *testing.B) {
	g := grid(100, 100, 2)
	opt := Options{K: 2}.withDefaults()
	ws := newWorkspace(g.NV())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.rng.Seed(int64(i))
		bisect(context.Background(), g, 0.5, 0.03, opt, ws, nil, 0)
	}
}

func BenchmarkPartitionRB(b *testing.B) {
	g := grid(100, 100, 2)
	for _, k := range []int{8, 32} {
		b.Run(kname(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := KWay(context.Background(), g, Options{K: k, Seed: int64(i), Imbalance: 0.05}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRefineKWay(b *testing.B) {
	g := grid(100, 100, 2)
	base, err := KWay(context.Background(), g, Options{K: 16, Seed: 1, Imbalance: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labels := append([]int32(nil), base...)
		RefineKWay(g, labels, Options{K: 16, Seed: int64(i), Imbalance: 0.05})
	}
}

func BenchmarkRepartition(b *testing.B) {
	g := grid(100, 100, 2)
	base, err := KWay(context.Background(), g, Options{K: 16, Seed: 1, Imbalance: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labels := append([]int32(nil), base...)
		// Perturb: clear one partition into another, then repartition.
		for v := range labels {
			if labels[v] == 7 {
				labels[v] = 3
			}
		}
		if err := Repartition(g, labels, Options{K: 16, Seed: int64(i), Imbalance: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKWayParallel compares the strictly serial recursion against
// the pooled one on a graph above the default cutoff (45k vertices vs
// 1<<14). Run with -cpu to sweep GOMAXPROCS; on a single-core machine
// the parallel leg measures pure pool overhead, which must stay small.
func BenchmarkKWayParallel(b *testing.B) {
	g := grid(150, 150, 2)
	opt := Options{K: 16, Seed: 1, Imbalance: 0.05}

	serial, err := kwayAt(context.Background(), g, opt, serialCutoff)
	if err != nil {
		b.Fatal(err)
	}
	par, err := KWay(context.Background(), g, opt)
	if err != nil {
		b.Fatal(err)
	}
	for v := range serial {
		if serial[v] != par[v] {
			b.Fatalf("vertex %d: parallel label %d != serial %d", v, par[v], serial[v])
		}
	}

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kwayAt(context.Background(), g, opt, serialCutoff); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := KWay(context.Background(), g, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCoarsen(b *testing.B) {
	g := grid(100, 100, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		coarsen(context.Background(), g, 80, rng, newWorkspace(g.NV()))
	}
}

// BenchmarkKWayScaling partitions two-constraint grids of about 62k,
// 250k and 1M vertices into 16 parts on the serial recursion and
// reports the cost per vertex: all of KWay, its coarsening and its FM
// refinement (summed over every bisection), and heap allocations.
// Coarsening and refinement are linear in the graph size, so their
// ns/vertex should stay roughly flat from the smallest grid to the
// largest.
func BenchmarkKWayScaling(b *testing.B) {
	for _, side := range []int{250, 500, 1000} {
		g := grid(side, side, 2)
		b.Run(fmt.Sprintf("nv=%d", g.NV()), func(b *testing.B) {
			b.ReportAllocs()
			var phaseNS = map[string]int64{}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				col := obs.New()
				opt := Options{K: 16, Seed: 1, Imbalance: 0.05, Obs: col}
				if _, err := kwayAt(context.Background(), g, opt, serialCutoff); err != nil {
					b.Fatal(err)
				}
				for _, p := range col.Report().Phases {
					phaseNS[p.Name] += p.TotalNS
				}
			}
			runtime.ReadMemStats(&after)
			perV := float64(b.N) * float64(g.NV())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perV, "ns/vertex")
			b.ReportMetric(float64(phaseNS["rb_coarsen"])/perV, "coarsen-ns/vertex")
			b.ReportMetric(float64(phaseNS["rb_refine"])/perV, "refine-ns/vertex")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perV, "allocs/vertex")
		})
		runtime.GC()
	}
}

// BenchmarkKWayPaperMesh partitions the graphs the repository
// benchmark sends through KWay: the snapshot-0 nodal graph of the
// table1_fixed scene (the paper profile at Refine 1 after 100 of 400
// steps, 17,687 vertices) with MCML+DT's two constraints and ML+RCB's
// one, at k 25 and 100, and serve_open's grid job (48x48, one
// constraint, k 8).
func BenchmarkKWayPaperMesh(b *testing.B) {
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
	m := s.Snapshot(0).Mesh
	g2, g1 := m.NodalGraph(mesh.DefaultNodalOptions()), m.NodalGraph(mesh.NodalGraphOptions{NCon: 1})
	for _, c := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"ncon=2/k=25", g2, 25}, {"ncon=2/k=100", g2, 100},
		{"ncon=1/k=25", g1, 25}, {"ncon=1/k=100", g1, 100},
		{"grid48/k=8", grid(48, 48, 1), 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := KWay(context.Background(), c.g, Options{K: c.k, Seed: 1, Imbalance: 0.05}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func kname(k int) string {
	if k == 8 {
		return "k8"
	}
	return "k32"
}
