package partition

import (
	"context"
	"math/rand"
	"testing"
)

func BenchmarkBisect(b *testing.B) {
	g := grid(100, 100, 2)
	opt := Options{K: 2}.withDefaults()
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
		for i := 0; i < b.N; i++ {
			if _, err := KWay(context.Background(), g, serialOpt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := KWay(context.Background(), g, parOpt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCoarsen(b *testing.B) {
	g := grid(100, 100, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		coarsen(context.Background(), g, 80, rng)
	}
}

func kname(k int) string {
	if k == 8 {
		return "k8"
	}
	return "k32"
}
