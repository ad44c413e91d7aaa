package bkmeans

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// randPoints builds a clustered 3D point cloud with ncon weights
// (first component always >= 1).
func randPoints(r *rand.Rand, n, ncon int) ([]geom.Point, []int32) {
	pts := make([]geom.Point, n)
	wgts := make([]int32, n*ncon)
	for i := range pts {
		cx := float64(r.Intn(4)) * 15
		pts[i] = geom.P3(cx+r.Float64()*10, r.Float64()*12, r.Float64()*20)
		wgts[i*ncon] = 1 + int32(r.Intn(3))
		for j := 1; j < ncon; j++ {
			if r.Intn(3) == 0 {
				wgts[i*ncon+j] = int32(r.Intn(4))
			}
		}
	}
	return pts, wgts
}

func TestPartitionBalanceAndCoverage(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, k := range []int{2, 6, 16} {
		pts, wgts := randPoints(r, 2500, 1)
		labels, err := Partition(context.Background(), pts, wgts, 1, 3, k, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, k)
		loads := make([]int64, k)
		var total, maxw int64
		for i, l := range labels {
			if l < 0 || int(l) >= k {
				t.Fatalf("k=%d: label %d out of range", k, l)
			}
			counts[l]++
			loads[l] += int64(wgts[i])
			total += int64(wgts[i])
			if int64(wgts[i]) > maxw {
				maxw = int64(wgts[i])
			}
		}
		// The documented hard cap: (1+eps)·avg + 1 + max weight.
		cap0 := int64(float64(total)/float64(k)*1.05) + 1 + maxw
		for p := 0; p < k; p++ {
			if counts[p] == 0 {
				t.Fatalf("k=%d: part %d empty", k, p)
			}
			if loads[p] > cap0 {
				t.Errorf("k=%d: part %d load %d exceeds cap %d", k, p, loads[p], cap0)
			}
		}
	}
}

// TestPartitionCompactness: balanced k-means clusters should be
// spatially compact — the total part-box volume must stay well under
// k times the domain volume.
func TestPartitionCompactness(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts, wgts := randPoints(r, 3000, 1)
	k := 8
	labels, err := Partition(context.Background(), pts, wgts, 1, 3, k, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	whole := geom.BoxOf(pts)
	wholeVol := (whole.Max[0] - whole.Min[0]) * (whole.Max[1] - whole.Min[1]) * (whole.Max[2] - whole.Min[2])
	var sum float64
	for p := 0; p < k; p++ {
		b := geom.Empty()
		for i, l := range labels {
			if int(l) == p {
				b = b.Extend(pts[i])
			}
		}
		sum += (b.Max[0] - b.Min[0]) * (b.Max[1] - b.Min[1]) * (b.Max[2] - b.Min[2])
	}
	if sum > 3*wholeVol {
		t.Errorf("total part-box volume %.1f vs domain %.1f: no compactness", sum, wholeVol)
	}
}

// TestPartitionWorkerDeterminism: byte-identical labels for every
// worker count and for the forced chunked assignment path.
func TestPartitionWorkerDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pts, wgts := randPoints(r, 9000, 2) // > assignCutoff to exercise the ranged sweep
	base, err := Partition(context.Background(), pts, wgts, 2, 3, 10, Options{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3, 8} {
		got, err := Partition(context.Background(), pts, wgts, 2, 3, 10, Options{Seed: 3, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: label[%d] = %d, want %d", w, i, got[i], base[i])
			}
		}
	}
}

// TestPartitionSeedSensitivity: different seeds are allowed to give
// different clusterings but the same seed must reproduce exactly.
func TestPartitionSeedSensitivity(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pts, wgts := randPoints(r, 1200, 1)
	a, err := Partition(context.Background(), pts, wgts, 1, 3, 6, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(context.Background(), pts, wgts, 1, 3, 6, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	pts := []geom.Point{geom.P3(0, 0, 0)}
	if _, err := Partition(context.Background(), pts, []int32{1}, 1, 4, 2, Options{}); err == nil {
		t.Error("accepted dim=4")
	}
	if _, err := Partition(context.Background(), pts, []int32{1}, 1, 3, 0, Options{}); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := Partition(context.Background(), pts, []int32{1, 1, 1}, 2, 3, 2, Options{}); err == nil {
		t.Error("accepted mismatched weight length")
	}
	// Degenerate geometry (all points coincident) still covers every part.
	same := make([]geom.Point, 12)
	w := make([]int32, 12)
	for i := range w {
		w[i] = 1
	}
	labels, err := Partition(context.Background(), same, w, 1, 3, 4, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 4)
	for _, l := range labels {
		seen[l] = true
	}
	for p, ok := range seen {
		if !ok {
			t.Errorf("coincident points: part %d empty", p)
		}
	}
}

// TestAssignCapacityContract: the exported Assign never exceeds a cap
// and assigns every point when the feasibility precondition holds.
func TestAssignCapacityContract(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	pts := make([]geom.Point, 400)
	w := make([]int64, 400)
	var total, maxw int64
	for i := range pts {
		pts[i] = geom.P3(r.Float64()*30, r.Float64()*30, 0)
		w[i] = 1 + int64(r.Intn(5))
		total += w[i]
		if w[i] > maxw {
			maxw = w[i]
		}
	}
	k := 7
	cents := make([]geom.Point, k)
	for p := range cents {
		cents[p] = pts[r.Intn(len(pts))]
	}
	caps := make([]int64, k)
	for p := range caps {
		caps[p] = (total+int64(k)-1)/int64(k) + maxw
	}
	labels, err := Assign(pts, w, cents, caps)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]int64, k)
	for i, l := range labels {
		if l < 0 || int(l) >= k {
			t.Fatalf("label %d out of range", l)
		}
		load[l] += w[i]
	}
	for p := 0; p < k; p++ {
		if load[p] > caps[p] {
			t.Errorf("cluster %d load %d exceeds cap %d", p, load[p], caps[p])
		}
	}
}
