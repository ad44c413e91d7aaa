package sfc

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pool"
)

// Options configures Partition.
type Options struct {
	// Bits is the quantization resolution per axis (0 = MaxBits(dim)).
	Bits int
	// Workers bounds the worker pool for key computation and the merge
	// sort (<= 0 = GOMAXPROCS). Labels are identical for every value.
	Workers int
	// Obs, when non-nil, receives the sfc_keys/sfc_sort/sfc_split phase
	// timers and the sfc_sort_chunks counter. Observational only.
	Obs *obs.Collector
}

// parallelCutoff is the point count below which keys are computed and
// sorted on the calling goroutine (chunking overhead dominates under
// it). A variable so tests can force the chunked path on small inputs.
var parallelCutoff = 1 << 13

// Partition splits pts into k contiguous segments of the Hilbert curve.
// wgts carries ncon weights per point (flat, stride ncon); segment
// boundaries are chosen by a prefix-sum scan that minimizes the worst
// per-constraint relative deviation from the proportional target, so
// multi-constraint balance is honored as far as contiguous curve
// segments allow. Every part is non-empty whenever len(pts) >= k.
// Deterministic for any Options.Workers. ctx carries the parent of
// the run's "sfc" span; the near-linear run does not poll it.
func Partition(ctx context.Context, pts []geom.Point, wgts []int32, ncon, dim, k int, opt Options) ([]int32, error) {
	bits := opt.Bits
	if bits == 0 {
		bits = MaxBits(dim)
	}
	if err := validateCurve(dim, bits); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("sfc: k = %d, want >= 1", k)
	}
	if ncon < 1 {
		return nil, fmt.Errorf("sfc: ncon = %d, want >= 1", ncon)
	}
	if len(wgts) != len(pts)*ncon {
		return nil, fmt.Errorf("sfc: %d weights for %d points with ncon=%d", len(wgts), len(pts), ncon)
	}
	span := obs.SpanFromContext(ctx).Child("sfc",
		obs.Int("k", int64(k)), obs.Int("n", int64(len(pts))), obs.Int("bits", int64(bits)))
	defer span.End()

	labels := make([]int32, len(pts))
	if k == 1 || len(pts) == 0 {
		return labels, nil
	}

	workers := opt.Workers
	if len(pts) < parallelCutoff {
		workers = 1
	}
	ph := opt.Obs.Phase(span, "sfc_keys")
	recs := curveKeys(pts, dim, bits, workers)
	ph.End()

	ph = opt.Obs.Phase(span, "sfc_sort")
	sortKeys(recs, workers, opt.Obs)
	ph.End()

	ph = opt.Obs.Phase(span, "sfc_split")
	splitCurve(recs, wgts, ncon, k, labels)
	ph.End()
	return labels, nil
}

// rec is one point's position on the curve. idx breaks key ties, which
// makes the sort order strict and the whole pipeline deterministic.
type rec struct {
	key uint64
	idx int32
}

// curveKeys quantizes every point onto the 2^bits grid of the point
// set's bounding box and encodes its Hilbert index, split over the
// workers. Ranges write disjoint parts of a pre-sized slice, so the
// values are identical for every split.
func curveKeys(pts []geom.Point, dim, bits int, workers int) []rec {
	box := geom.BoxOf(pts)
	limit := float64(uint32(1)<<uint(bits) - 1)
	var scale [3]float64
	for d := 0; d < dim; d++ {
		if ext := box.Max[d] - box.Min[d]; ext > 0 {
			scale[d] = limit / ext
		}
	}
	recs := make([]rec, len(pts))
	pool.Ranges(workers, len(pts), func(lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			var axes [3]uint32
			for d := 0; d < dim; d++ {
				axes[d] = uint32((pts[i][d] - box.Min[d]) * scale[d])
			}
			recs[i] = rec{key: Encode(axes, dim, bits), idx: int32(i)}
		}
		return struct{}{}
	})
	return recs
}

// sortKeys sorts recs in place by (key, idx): chunk-local sorts fan out
// over the pool, then adjacent runs are pair-merged level by level.
// The order (key, idx) is a strict total order, so the result is the
// unique sorted permutation regardless of worker count or chunking.
func sortKeys(recs []rec, workers int, col *obs.Collector) {
	// Chunk-local sorts; run c is recs[bounds[c]:bounds[c+1]].
	bounds := append([]int{0}, pool.Ranges(workers, len(recs), func(lo, hi int) int {
		sort.Slice(recs[lo:hi], func(i, j int) bool { return less(recs[lo+i], recs[lo+j]) })
		return hi
	})...)
	col.Add("sfc_sort_chunks", int64(len(bounds)-1))
	if len(bounds) <= 2 {
		return
	}

	// Pairwise merge levels until one run remains, one range per pair:
	// pair c merges runs 2c and 2c+1 (an odd last run merges with
	// nothing). src and dst swap between the original slice and one
	// scratch buffer.
	src, dst := recs, make([]rec, len(recs))
	for len(bounds) > 2 {
		pairs := len(bounds) / 2
		end := func(c int) int { return bounds[min(2*c+2, len(bounds)-1)] }
		next := append([]int{0}, pool.Ranges(pairs, pairs, func(c, _ int) int {
			mid := bounds[2*c+1]
			mergeRuns(src[bounds[2*c]:mid], src[mid:end(c)], dst[bounds[2*c]:end(c)])
			return end(c)
		})...)
		bounds, src, dst = next, dst, src
	}
	if &src[0] != &recs[0] {
		copy(recs, src)
	}
}

func less(a, b rec) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.idx < b.idx
}

// mergeRuns merges two sorted runs into dst (len(dst) = len(a)+len(b)).
func mergeRuns(a, b, dst []rec) {
	i, j := 0, 0
	for o := range dst {
		switch {
		case i == len(a):
			dst[o] = b[j]
			j++
		case j == len(b):
			dst[o] = a[i]
			i++
		case less(b[j], a[i]):
			dst[o] = b[j]
			j++
		default:
			dst[o] = a[i]
			i++
		}
	}
}

// splitCurve cuts the sorted curve into k segments. For segment
// boundary s the target is the proportional prefix s/k of every
// constraint's total; the cut index is the local minimum of the worst
// relative deviation across constraints — each constraint's deviation
// is monotone-down-then-up in the cut index, so their max is
// quasiconvex and the first local minimum is global. Bounds keep every
// segment non-empty (when n >= k) and leave room for the segments
// still to come.
func splitCurve(recs []rec, wgts []int32, ncon, k int, labels []int32) {
	n := len(recs)
	total := make([]float64, ncon)
	for i := 0; i < n; i++ {
		for j := 0; j < ncon; j++ {
			total[j] += float64(wgts[int(recs[i].idx)*ncon+j])
		}
	}
	active := false
	for j := 0; j < ncon; j++ {
		if total[j] > 0 {
			active = true
		}
	}

	// dev is the worst relative deviation of a candidate prefix from
	// the boundary-s target. With no positive constraint totals it
	// falls back to count balance so the split stays proportional.
	dev := func(prefix []float64, count, s int) float64 {
		if !active {
			d := float64(count) - float64(s)*float64(n)/float64(k)
			if d < 0 {
				d = -d
			}
			return d / float64(n)
		}
		worst := 0.0
		for j := 0; j < ncon; j++ {
			if total[j] == 0 {
				continue
			}
			d := prefix[j] - float64(s)*total[j]/float64(k)
			if d < 0 {
				d = -d
			}
			if rd := d / total[j]; rd > worst {
				worst = rd
			}
		}
		return worst
	}

	prefix := make([]float64, ncon) // weights of recs[:cut]
	cand := make([]float64, ncon)   // prefix if one more point joins
	cut := 0
	cuts := make([]int, 0, k-1)
	for s := 1; s < k; s++ {
		lo := cut + 1     // at least one point in segment s-1
		hi := n - (k - s) // leave one point per remaining segment
		if hi < lo {
			hi = lo
		}
		if hi > n {
			hi = n // fewer points than segments: the tail stays empty
		}
		for cut < lo && cut < n {
			for j := 0; j < ncon; j++ {
				prefix[j] += float64(wgts[int(recs[cut].idx)*ncon+j])
			}
			cut++
		}
		best := dev(prefix, cut, s)
		for cut < hi {
			for j := 0; j < ncon; j++ {
				cand[j] = prefix[j] + float64(wgts[int(recs[cut].idx)*ncon+j])
			}
			if d := dev(cand, cut+1, s); d > best {
				break // first non-improvement = global minimum
			} else {
				best = d
			}
			copy(prefix, cand)
			cut++
		}
		cuts = append(cuts, cut)
	}

	seg, at := int32(0), 0
	for i := 0; i < n; i++ {
		for at < len(cuts) && i >= cuts[at] {
			seg++
			at++
		}
		labels[recs[i].idx] = seg
	}
}
