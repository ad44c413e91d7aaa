// Package bkmeans implements balanced k-means partitioning (von Looz,
// Tzovas & Meyerhenke, arXiv:1805.01208): Lloyd iterations whose
// assignment step is capacity-constrained, so every cluster's load on
// the primary weight component stays under an explicit cap while
// points still go to near centroids. It is the higher-quality
// geometric fast path next to the Hilbert-curve partitioner: clusters
// are compact and convex-ish rather than curve segments, at the cost
// of a few O(n·k) sweeps instead of one sort.
//
// Everything is deterministic for a fixed Options.Seed: centroid
// initialization uses a seeded k-means++ draw, the assignment order is
// a strict total order (capacity pressure, then index), and
// parallelism only computes pure per-point values in fixed-size chunks.
package bkmeans

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pool"
)

// Options configures Partition.
type Options struct {
	// Seed drives the k-means++ centroid initialization.
	Seed int64
	// Imbalance is the capacity slack epsilon on the primary weight
	// component (default 0.05); the hard cap additionally includes one
	// heaviest-point granularity so the greedy assignment always
	// terminates with every point placed.
	Imbalance float64
	// MaxIters bounds the Lloyd iterations (default 8; convergence
	// usually stops earlier).
	MaxIters int
	// Workers bounds the worker pool for the per-point distance sweeps
	// (<= 0 = GOMAXPROCS). Labels are identical for every value.
	Workers int
	// Obs, when non-nil, receives bkmeans_init/bkmeans_assign phase
	// timers and the bkmeans_iters counter. Observational only.
	Obs *obs.Collector
}

func (opt Options) withDefaults() Options {
	if opt.Imbalance <= 0 {
		opt.Imbalance = 0.05
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = 8
	}
	return opt
}

// Partition clusters pts into k capacity-balanced groups. wgts carries
// ncon weights per point (flat, stride ncon); the capacity constraint
// applies to component 0 (the FE load), further components are not
// balanced — callers that need full multi-constraint balance should
// use the multilevel partitioner. Every part is non-empty whenever
// len(pts) >= k. Deterministic for fixed (Seed, K); Workers never
// changes the labels. ctx carries the parent of the run's "bkmeans"
// span; the few O(n·k) sweeps do not poll it.
func Partition(ctx context.Context, pts []geom.Point, wgts []int32, ncon, dim, k int, opt Options) ([]int32, error) {
	if dim != 2 && dim != 3 {
		return nil, fmt.Errorf("bkmeans: dim = %d, want 2 or 3", dim)
	}
	if k < 1 {
		return nil, fmt.Errorf("bkmeans: k = %d, want >= 1", k)
	}
	if ncon < 1 {
		return nil, fmt.Errorf("bkmeans: ncon = %d, want >= 1", ncon)
	}
	if len(wgts) != len(pts)*ncon {
		return nil, fmt.Errorf("bkmeans: %d weights for %d points with ncon=%d", len(wgts), len(pts), ncon)
	}
	opt = opt.withDefaults()
	span := obs.SpanFromContext(ctx).Child("bkmeans", obs.Int("k", int64(k)), obs.Int("n", int64(len(pts))))
	defer span.End()

	n := len(pts)
	labels := make([]int32, n)
	if k == 1 || n == 0 {
		return labels, nil
	}

	// Primary weights and the feasible capacity: (1+eps)·avg plus one
	// heaviest point. caps sum to >= total + k·maxw, which is exactly
	// what guarantees the greedy assignment never strands a point (at
	// any step the cluster with the most remaining room has >= maxw).
	w := make([]int64, n)
	var total, maxw int64
	for i := 0; i < n; i++ {
		w[i] = int64(wgts[i*ncon])
		total += w[i]
		if w[i] > maxw {
			maxw = w[i]
		}
	}
	cap0 := int64(float64(total)/float64(k)*(1+opt.Imbalance)) + 1 + maxw
	caps := make([]int64, k)
	for p := range caps {
		caps[p] = cap0
	}

	ph := opt.Obs.Phase(span, "bkmeans_init")
	cents := initCentroids(pts, w, k, opt.Seed)
	ph.End()

	ph = opt.Obs.Phase(span, "bkmeans_assign")
	defer ph.End()
	var iters int64
	for it := 0; it < opt.MaxIters; it++ {
		iters++
		next, err := assign(pts, w, cents, caps, opt.Workers)
		if err != nil {
			return nil, err // unreachable with the feasible caps above
		}
		same := true
		for i := range next {
			if next[i] != labels[i] {
				same = false
			}
		}
		labels = next
		if same && it > 0 {
			break
		}
		moveCentroids(pts, w, labels, cents)
	}
	opt.Obs.Add("bkmeans_iters", iters)

	repairEmpty(pts, w, labels, cents, caps, k)
	return labels, nil
}

// initCentroids is the seeded k-means++ draw: the first centroid is a
// uniformly random point, each further one is drawn with probability
// proportional to its squared distance from the nearest centroid so
// far. Fully deterministic for a fixed seed.
func initCentroids(pts []geom.Point, w []int64, k int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	n := len(pts)
	cents := make([]geom.Point, 0, k)
	cents = append(cents, pts[rng.Intn(n)])
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = dist2(pts[i], cents[0])
	}
	for len(cents) < k {
		var sum float64
		for _, d := range d2 {
			sum += d
		}
		var pick int
		if sum <= 0 {
			// All points coincide with a centroid (duplicates or tiny
			// inputs): fall back to a uniform draw.
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * sum
			acc := 0.0
			pick = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= r {
					pick = i
					break
				}
			}
		}
		c := pts[pick]
		cents = append(cents, c)
		for i := range d2 {
			if d := dist2(pts[i], c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return cents
}

// assignCutoff is the point count below which the distance sweep runs
// on the calling goroutine. Ranges are pure per-point computations
// into disjoint slices, so the worker count cannot influence any value.
const assignCutoff = 1 << 13

// assign is the capacity-constrained assignment step: points are
// processed most-constrained-first (largest gap between their nearest
// and second-nearest centroid, ties by index) and greedily placed in
// the nearest centroid whose remaining capacity fits them, falling
// back to the cluster with the most remaining room (ties by index).
// An error is returned only when even that cluster cannot fit the
// point — impossible when sum(caps) >= total + k·max(w).
func assign(pts []geom.Point, w []int64, cents []geom.Point, caps []int64, workers int) ([]int32, error) {
	n, k := len(pts), len(cents)
	// gap[i] = d2(second nearest) - d2(nearest): how much point i loses
	// if its first choice is full.
	gap := make([]float64, n)
	if n < assignCutoff {
		workers = 1
	}
	pool.Ranges(workers, n, func(lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			best, second := -1.0, -1.0
			for _, c := range cents {
				d := dist2(pts[i], c)
				switch {
				case best < 0 || d < best:
					best, second = d, best
				case second < 0 || d < second:
					second = d
				}
			}
			gap[i] = second - best
		}
		return struct{}{}
	})

	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		if gap[order[a]] != gap[order[b]] {
			return gap[order[a]] > gap[order[b]]
		}
		return order[a] < order[b]
	})

	labels := make([]int32, n)
	load := make([]int64, k)
	pref := make([]int32, k)
	d := make([]float64, k)
	for _, i := range order {
		// Centroid preference of this point: ascending distance, ties
		// by cluster index.
		for p := range cents {
			d[p] = dist2(pts[i], cents[p])
			pref[p] = int32(p)
		}
		sort.Slice(pref, func(a, b int) bool {
			if d[pref[a]] != d[pref[b]] {
				return d[pref[a]] < d[pref[b]]
			}
			return pref[a] < pref[b]
		})
		placed := false
		for _, p := range pref {
			if load[p]+w[i] <= caps[p] {
				labels[i] = p
				load[p] += w[i]
				placed = true
				break
			}
		}
		if !placed {
			// Most remaining room, ties by index.
			best := 0
			for p := 1; p < k; p++ {
				if caps[p]-load[p] > caps[best]-load[best] {
					best = p
				}
			}
			if load[best]+w[i] > caps[best] {
				return nil, fmt.Errorf("bkmeans: point %d (weight %d) fits no cluster", i, w[i])
			}
			labels[i] = int32(best)
			load[best] += w[i]
		}
	}
	return labels, nil
}

// Assign exposes the capacity-constrained assignment step for property
// testing and fuzzing: given centroids and per-cluster capacities with
// sum(caps) >= sum(w) + len(cents)·max(w), it places every point
// without exceeding any capacity.
func Assign(pts []geom.Point, w []int64, cents []geom.Point, caps []int64) ([]int32, error) {
	if len(w) != len(pts) {
		return nil, fmt.Errorf("bkmeans: %d weights for %d points", len(w), len(pts))
	}
	if len(caps) != len(cents) {
		return nil, fmt.Errorf("bkmeans: %d caps for %d centroids", len(caps), len(cents))
	}
	if len(cents) == 0 {
		return nil, fmt.Errorf("bkmeans: no centroids")
	}
	return assign(pts, w, cents, caps, 1)
}

// moveCentroids recomputes every cluster's centroid as the weighted
// mean of its points; a cluster with no points (or zero total weight)
// keeps its previous centroid so it can still attract points next
// iteration. Serial on purpose: it is O(n) and the accumulation order
// must not depend on the worker count.
func moveCentroids(pts []geom.Point, w []int64, labels []int32, cents []geom.Point) {
	k := len(cents)
	sum := make([]geom.Point, k)
	wsum := make([]float64, k)
	for i, p := range pts {
		l := labels[i]
		f := float64(w[i])
		if f == 0 {
			f = 1 // zero-weight points still pull their centroid
		}
		sum[l] = sum[l].Add(p.Scale(f))
		wsum[l] += f
	}
	for p := 0; p < k; p++ {
		if wsum[p] > 0 {
			cents[p] = sum[p].Scale(1 / wsum[p])
		}
	}
}

// repairEmpty guarantees the non-empty-parts invariant: every empty
// cluster (ascending) steals, from the most populous cluster, the
// point nearest to its own centroid. Capacities stay respected: the
// stolen point's weight is at most max(w) <= every cap.
func repairEmpty(pts []geom.Point, w []int64, labels []int32, cents []geom.Point, caps []int64, k int) {
	n := len(pts)
	if n < k {
		return
	}
	counts := make([]int, k)
	load := make([]int64, k)
	for i, l := range labels {
		counts[l]++
		load[l] += w[i]
	}
	for p := 0; p < k; p++ {
		if counts[p] > 0 {
			continue
		}
		donor := -1
		for q := 0; q < k; q++ {
			if counts[q] > 1 && (donor < 0 || counts[q] > counts[donor]) {
				donor = q
			}
		}
		if donor < 0 {
			return // fewer multi-point clusters than holes; nothing to move
		}
		best, bestD := -1, 0.0
		for i, l := range labels {
			if int(l) != donor {
				continue
			}
			if d := dist2(pts[i], cents[p]); best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		labels[best] = int32(p)
		counts[donor]--
		load[donor] -= w[best]
		counts[p]++
		load[p] += w[best]
	}
}

func dist2(a, b geom.Point) float64 {
	d := a.Sub(b)
	return d.Dot(d)
}
