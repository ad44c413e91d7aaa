package dtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func benchPoints(n, k int) ([]geom.Point, []int32) {
	r := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, n)
	labels := make([]int32, n)
	for i := range pts {
		pts[i] = geom.P3(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		// Spatially coherent labels (blocks), like a real partition.
		labels[i] = int32((int(pts[i][0]) + int(pts[i][1])*3) % k)
	}
	return pts, labels
}

func BenchmarkBuildDescriptor10k(b *testing.B) {
	pts, labels := benchPoints(10000, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pts, labels, 3, 25, Options{Mode: Descriptor}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildDescriptor10kCarried is the steady state of the
// per-snapshot update: every point moves by a small jitter between
// builds and the presort is carried from the previous build.
func BenchmarkBuildDescriptor10kCarried(b *testing.B) {
	pts, labels := benchPoints(10000, 25)
	keys := make([]int64, len(pts))
	for i := range keys {
		keys[i] = int64(i)
	}
	r := rand.New(rand.NewSource(2))
	var c Carry
	c.Orders(pts, keys, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range pts {
			pts[j][r.Intn(3)] += (r.Float64() - 0.5) * 0.01
		}
		b.StartTimer()
		if _, err := BuildSorted(pts, labels, 3, 25, Options{Mode: Descriptor}, c.Orders(pts, keys, 3)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildDescriptor10kParallel(b *testing.B) {
	pts, labels := benchPoints(10000, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pts, labels, 3, 25, Options{Mode: Descriptor, Parallel: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildGuidance50k(b *testing.B) {
	pts, labels := benchPoints(50000, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pts, labels, 3, 25, Options{
			Mode: Guidance, MaxPure: 2000, MaxImpure: 80, Parallel: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoxQuery(b *testing.B) {
	pts, labels := benchPoints(20000, 25)
	tree, err := Build(pts, labels, 3, 25, Options{Mode: Descriptor})
	if err != nil {
		b.Fatal(err)
	}
	q := geom.AABB{Min: geom.P3(4, 4, 4), Max: geom.P3(5, 5, 5)}
	out := make([]bool, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.PartsIntersecting(q, labels, out)
		for p := range out {
			out[p] = false
		}
	}
}

func BenchmarkPointLocate(b *testing.B) {
	pts, labels := benchPoints(20000, 25)
	tree, err := Build(pts, labels, 3, 25, Options{Mode: Descriptor})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.LeafIndexOf(pts[i%len(pts)])
	}
}
