package sfc

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestHilbertBijectionExhaustive walks every cell of small 2D and 3D
// grids: the keys must be a permutation of [0, 2^(dims*bits)) and
// Decode must invert Encode exactly.
func TestHilbertBijectionExhaustive(t *testing.T) {
	cases := []struct{ dims, bits int }{{2, 1}, {2, 3}, {3, 1}, {3, 2}, {3, 3}}
	for _, c := range cases {
		side := 1 << uint(c.bits)
		cells := 1
		for i := 0; i < c.dims; i++ {
			cells *= side
		}
		seen := make([]bool, cells)
		var walk func(axes [3]uint32, d int)
		walk = func(axes [3]uint32, d int) {
			if d == c.dims {
				h := Encode(axes, c.dims, c.bits)
				if h >= uint64(cells) {
					t.Fatalf("dims=%d bits=%d: key %d out of range for %v", c.dims, c.bits, h, axes)
				}
				if seen[h] {
					t.Fatalf("dims=%d bits=%d: duplicate key %d at %v", c.dims, c.bits, h, axes)
				}
				seen[h] = true
				if back := Decode(h, c.dims, c.bits); back != axes {
					t.Fatalf("dims=%d bits=%d: Decode(Encode(%v)) = %v", c.dims, c.bits, axes, back)
				}
				return
			}
			for v := 0; v < side; v++ {
				axes[d] = uint32(v)
				walk(axes, d+1)
			}
		}
		walk([3]uint32{}, 0)
		for h, ok := range seen {
			if !ok {
				t.Fatalf("dims=%d bits=%d: key %d never produced", c.dims, c.bits, h)
			}
		}
	}
}

// TestHilbertAdjacency pins the curve-continuity property on a full
// small grid: consecutive curve positions are grid neighbors (Manhattan
// distance exactly 1).
func TestHilbertAdjacency(t *testing.T) {
	for _, c := range []struct{ dims, bits int }{{2, 4}, {3, 3}} {
		cells := uint64(1) << uint(c.dims*c.bits)
		prev := Decode(0, c.dims, c.bits)
		for h := uint64(1); h < cells; h++ {
			cur := Decode(h, c.dims, c.bits)
			if manhattan(prev, cur) != 1 {
				t.Fatalf("dims=%d bits=%d: positions %d→%d jump from %v to %v",
					c.dims, c.bits, h-1, h, prev, cur)
			}
			prev = cur
		}
	}
}

func manhattan(a, b [3]uint32) int {
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += int(a[i] - b[i])
		} else {
			d += int(b[i] - a[i])
		}
	}
	return d
}

// randPoints builds a clustered 3D point cloud with ncon weights
// (first component always >= 1, the precondition for non-empty parts).
func randPoints(r *rand.Rand, n, ncon int) ([]geom.Point, []int32) {
	pts := make([]geom.Point, n)
	wgts := make([]int32, n*ncon)
	for i := range pts {
		pts[i] = geom.P3(r.Float64()*40, r.Float64()*10, r.Float64()*25)
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
	r := rand.New(rand.NewSource(7))
	for _, k := range []int{2, 5, 16} {
		for _, ncon := range []int{1, 2} {
			pts, wgts := randPoints(r, 3000, ncon)
			labels, err := Partition(pts, wgts, ncon, 3, k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, k)
			loads := make([]int64, k)
			var total int64
			for i, l := range labels {
				if l < 0 || int(l) >= k {
					t.Fatalf("k=%d: label %d out of range", k, l)
				}
				counts[l]++
				loads[l] += int64(wgts[i*ncon])
				total += int64(wgts[i*ncon])
			}
			avg := float64(total) / float64(k)
			// Single-constraint splits land within 10% + one-vertex
			// granularity; with a second constraint the cut compromises
			// between components, so only a looser bound is guaranteed.
			slack := 1.1*avg + 3
			if ncon > 1 {
				slack = 1.35*avg + 3
			}
			for p := 0; p < k; p++ {
				if counts[p] == 0 {
					t.Fatalf("k=%d ncon=%d: part %d empty", k, ncon, p)
				}
				if float64(loads[p]) > slack {
					t.Errorf("k=%d ncon=%d: part %d load %d vs avg %.1f", k, ncon, p, loads[p], avg)
				}
			}
		}
	}
}

// TestPartitionLocality: curve segments should be spatially compact —
// every part's bounding box must be far smaller than the domain.
func TestPartitionLocality(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts, wgts := randPoints(r, 4000, 1)
	k := 8
	labels, err := Partition(pts, wgts, 1, 3, k, Options{})
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
	// Random labeling would give ~k*wholeVol; Hilbert segments stay
	// compact. Allow generous slack for segment wraparound.
	if sum > 2.5*wholeVol {
		t.Errorf("total part-box volume %.1f vs domain %.1f: no locality", sum, wholeVol)
	}
}

// TestPartitionWorkerDeterminism: byte-identical labels for every
// worker count and for forced chunked paths, mirroring
// partition.TestKWaySerialParallelIdentical.
func TestPartitionWorkerDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pts, wgts := randPoints(r, 5000, 2)
	base, err := Partition(pts, wgts, 2, 3, 12, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	saved := parallelCutoff
	defer func() { parallelCutoff = saved }()
	for _, cutoff := range []int{saved, 1} {
		parallelCutoff = cutoff
		for _, w := range []int{1, 2, 3, 8} {
			got, err := Partition(pts, wgts, 2, 3, 12, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("cutoff=%d workers=%d: label[%d] = %d, want %d", cutoff, w, i, got[i], base[i])
				}
			}
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	pts := []geom.Point{geom.P3(0, 0, 0)}
	if _, err := Partition(pts, []int32{1}, 1, 4, 2, Options{}); err == nil {
		t.Error("accepted dim=4")
	}
	if _, err := Partition(pts, []int32{1}, 1, 3, 0, Options{}); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := Partition(pts, []int32{1, 1}, 2, 3, 2, Options{Bits: 40}); err == nil {
		t.Error("accepted bits=40 in 3D")
	}
	if _, err := Partition(pts, []int32{1, 1, 1}, 2, 3, 2, Options{}); err == nil {
		t.Error("accepted mismatched weight length")
	}
	// Degenerate geometry (all points coincident) still partitions.
	same := make([]geom.Point, 10)
	w := make([]int32, 10)
	for i := range w {
		w[i] = 1
	}
	labels, err := Partition(same, w, 1, 3, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 3)
	for _, l := range labels {
		seen[l] = true
	}
	for p, ok := range seen {
		if !ok {
			t.Errorf("coincident points: part %d empty", p)
		}
	}
}
