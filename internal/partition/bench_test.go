package partition

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/obs"
)

func BenchmarkBisect(b *testing.B) {
	g := grid(100, 100, 2)
	opt := Options{K: 2}.withDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		bisect(context.Background(), g, 0.5, 0.03, opt, rng, nil, 0)
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

func BenchmarkPartitionDirect(b *testing.B) {
	g := grid(100, 100, 2)
	for _, k := range []int{8, 32} {
		b.Run(kname(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PartitionDirect(context.Background(), g, Options{K: k, Seed: int64(i), Imbalance: 0.05}); err != nil {
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
		if _, err := Repartition(g, labels, RepartitionOptions{Options: Options{K: 16, Seed: int64(i), Imbalance: 0.05}}); err != nil {
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
	serialOpt := Options{K: 16, Seed: 1, Imbalance: 0.05, ParallelCutoff: -1}
	parOpt := Options{K: 16, Seed: 1, Imbalance: 0.05}

	serial, err := KWay(context.Background(), g, serialOpt)
	if err != nil {
		b.Fatal(err)
	}
	par, err := KWay(context.Background(), g, parOpt)
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
			if _, err := KWay(context.Background(), g, serialOpt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := KWay(context.Background(), g, parOpt); err != nil {
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
				opt := Options{K: 16, Seed: 1, Imbalance: 0.05, ParallelCutoff: -1, Obs: col}
				if _, err := KWay(context.Background(), g, opt); err != nil {
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

func kname(k int) string {
	if k == 8 {
		return "k8"
	}
	return "k32"
}
