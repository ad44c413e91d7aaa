// Package rcb implements recursive coordinate bisection of point sets,
// the geometric partitioner that the ML+RCB baseline (Plimpton et al.;
// Brown et al.) uses for the contact-search phase. A Tree retains the
// cut structure so successive time steps can be repartitioned
// *incrementally*: the cut planes shift to rebalance the moved points
// while the recursion structure (cut dimensions and subtree processor
// counts) stays fixed, which keeps the number of points that migrate
// between partitions small — exactly the repartitioning strategy the
// paper's UpdComm metric measures.
package rcb

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/geom"
	"repro/internal/pool"
)

// node is one bisection in the cut tree.
type node struct {
	dim         int     // cut dimension
	cut         float64 // points with coord <= cut go left
	kLeft       int     // partitions assigned to the left subtree
	left, right *node
	part        int32 // leaf: partition id (when left == nil)
}

// Tree is a k-way RCB decomposition of a point set. Build creates it;
// Update re-fits the cuts to a new point set of the same k.
type Tree struct {
	Dim  int
	K    int
	root *node
}

// parallelBuildCutoff is the point-subset size above which the two
// subtrees of a cut are built as concurrent pool tasks (the same
// fork-with-cutoff pattern as the graph partitioner's recursive
// bisection; both share pool.Group.Fork). Subtrees sort and label
// disjoint index ranges, so the tree and labels are identical to the
// serial recursion. A variable so tests can pin either path.
var parallelBuildCutoff = 1 << 14

// Build computes a k-way recursive coordinate bisection of pts in dim
// dimensions and returns the tree together with the partition label of
// every point. Partition sizes differ by at most 1 after every level
// of proportional splitting. k must be >= 1; pts may be empty.
func Build(pts []geom.Point, dim, k int) (*Tree, []int32, error) {
	if dim != 2 && dim != 3 {
		return nil, nil, fmt.Errorf("rcb: dim = %d", dim)
	}
	if k < 1 {
		return nil, nil, fmt.Errorf("rcb: k = %d", k)
	}
	t := &Tree{Dim: dim, K: k}
	labels := make([]int32, len(pts))
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
	}
	if k > 1 && len(pts) >= parallelBuildCutoff {
		//lint:ignore ctxflow fork-join group created and joined in this function; no caller cancellation crosses it
		grp := pool.NewGroup(context.Background(), 0)
		t.root = build(grp, pts, idx, labels, dim, 0, k)
		if err := grp.Wait(); err != nil {
			return nil, nil, err
		}
	} else {
		t.root = build(nil, pts, idx, labels, dim, 0, k)
	}
	return t, labels, nil
}

// build recursively bisects idx (point indices) into k partitions whose
// ids start at base, forking the left subtree onto grp when the subset
// is large enough (grp == nil means strictly serial). The returned
// node's children are fully populated only after grp.Wait.
func build(grp *pool.Group, pts []geom.Point, idx []int32, labels []int32, dim, base, k int) *node {
	if k == 1 {
		for _, i := range idx {
			labels[i] = int32(base)
		}
		return &node{part: int32(base)}
	}
	kL := (k + 1) / 2
	nL := len(idx) * kL / k

	d := splitDim(pts, idx, dim)
	n := &node{dim: d, cut: splitAlong(pts, idx, d, nL), kLeft: kL}
	left := idx[:nL]
	if err := grp.Fork(len(idx), parallelBuildCutoff, func(ctx context.Context) error {
		n.left = build(grp, pts, left, labels, dim, base, kL)
		return nil
	}); err != nil {
		// The group is cancelled: Wait will surface the cause and the
		// partial tree is discarded, so stop recursing here.
		return n
	}
	n.right = build(grp, pts, idx[nL:], labels, dim, base+kL, k-kL)
	return n
}

// splitDim picks the dimension with the largest coordinate spread of
// the current subset (the classic RCB heuristic).
func splitDim(pts []geom.Point, idx []int32, dim int) int {
	b := geom.Empty()
	for _, i := range idx {
		b = b.Extend(pts[i])
	}
	if len(idx) == 0 {
		return 0
	}
	return b.LongestDim(dim)
}

// less is the strict order of sortAlong: by coordinate d, ties broken
// by point index.
func less(pts []geom.Point, a, b int32, d int) bool {
	pa, pb := pts[a][d], pts[b][d]
	return pa < pb || pa == pb && a < b
}

// sortAlong orders idx by coordinate d, breaking ties by point index so
// results are deterministic.
func sortAlong(pts []geom.Point, idx []int32, d int) {
	slices.SortFunc(idx, func(a, b int32) int {
		if pa, pb := pts[a][d], pts[b][d]; pa != pb {
			return cmp.Compare(pa, pb)
		}
		return cmp.Compare(a, b)
	})
}

// cutBetween returns the cut coordinate separating the first nL sorted
// points from the rest: the midpoint between the bracketing
// coordinates (or the shared coordinate when they tie).
func cutBetween(pts []geom.Point, idx []int32, d, nL int) float64 {
	switch {
	case len(idx) == 0:
		return 0
	case nL <= 0:
		return pts[idx[0]][d]
	case nL >= len(idx):
		return pts[idx[len(idx)-1]][d]
	}
	lo, hi := pts[idx[nL-1]][d], pts[idx[nL]][d]
	return (lo + hi) / 2
}

// splitAlong moves the first nL points of idx in sortAlong's order to
// idx[:nL] and the rest to idx[nL:], and returns the cut cutBetween
// would return on the sorted idx. The order within each side is
// unspecified: because the order is strict, a selection yields the two
// sides of the sort as sets, at a fraction of its cost.
func splitAlong(pts []geom.Point, idx []int32, d, nL int) float64 {
	if len(idx) == 0 {
		return 0
	}
	// extreme returns the last point of s in the order, or the first.
	extreme := func(s []int32, last bool) int32 {
		x := s[0]
		for _, i := range s[1:] {
			if less(pts, x, i, d) == last {
				x = i
			}
		}
		return x
	}
	switch {
	case nL <= 0:
		return pts[extreme(idx, false)][d]
	case nL >= len(idx):
		return pts[extreme(idx, true)][d]
	}
	selectAlong(pts, idx, d, nL)
	// selectAlong leaves idx[nL] in its sorted place.
	lo, hi := pts[extreme(idx[:nL], true)][d], pts[idx[nL]][d]
	return (lo + hi) / 2
}

// selectAlong reorders idx so that idx[k] is the point sortAlong would
// put there and idx[:k] holds the points before it: a quickselect with
// median-of-three pivots, which sorts what is left once the range is
// short or partitioning stops shrinking it fast.
func selectAlong(pts []geom.Point, idx []int32, d, k int) {
	lo, hi := 0, len(idx)-1
	for budget := 2 * bits.Len(uint(len(idx))); lo < hi; budget-- {
		if hi-lo < 16 || budget == 0 {
			sortAlong(pts, idx[lo:hi+1], d)
			return
		}
		mid := int(uint(lo+hi) >> 1)
		if less(pts, idx[mid], idx[lo], d) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if less(pts, idx[hi], idx[lo], d) {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if less(pts, idx[hi], idx[mid], d) {
			idx[hi], idx[mid] = idx[mid], idx[hi]
		}
		// Hoare partition around the median of three, which idx[lo]
		// and idx[hi] bracket, so the scans stop inside the range.
		p, i, j := idx[mid], lo, hi
		for i <= j {
			for less(pts, idx[i], p, d) {
				i++
			}
			for less(pts, p, idx[j], d) {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		// idx[lo..j] precede p, idx[i..hi] follow it, and a position
		// between them holds p itself.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// Update re-fits the tree's cut positions to a new point set (same k,
// possibly different size): each node keeps its cut dimension and
// processor split but re-selects the median so the proportional counts
// stay exact. Returns the new labels.
func (t *Tree) Update(pts []geom.Point) []int32 {
	labels := make([]int32, len(pts))
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
	}
	update(t.root, pts, idx, labels, t.K)
	return labels
}

func update(n *node, pts []geom.Point, idx []int32, labels []int32, k int) {
	if n.left == nil {
		for _, i := range idx {
			labels[i] = n.part
		}
		return
	}
	nL := len(idx) * n.kLeft / k
	n.cut = splitAlong(pts, idx, n.dim, nL)
	update(n.left, pts, idx[:nL], labels, n.kLeft)
	update(n.right, pts, idx[nL:], labels, k-n.kLeft)
}

// PartOf locates the partition whose region contains p (ties on a cut
// plane go left, matching the <= convention used when building).
func (t *Tree) PartOf(p geom.Point) int32 {
	n := t.root
	for n.left != nil {
		if p[n.dim] <= n.cut {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.part
}

// VisitCells calls visit with every partition whose closed cell meets
// box q: a cut at c leads left when q.Min[d] <= c and right when
// q.Max[d] >= c. Build and Update leave every point in its partition's
// closed cell, points on a cut plane included, so a partition whose
// points' bounding box meets q is never skipped, provided the points are
// the ones the cuts were last fitted to and their coordinates are
// well inside the float64 range, so that a cut midpoint cannot overflow.
func (t *Tree) VisitCells(q geom.AABB, visit func(part int32)) {
	visitCells(t.root, q, visit)
}

func visitCells(n *node, q geom.AABB, visit func(part int32)) {
	if n.left == nil {
		visit(n.part)
		return
	}
	if q.Min[n.dim] <= n.cut {
		visitCells(n.left, q, visit)
	}
	if q.Max[n.dim] >= n.cut {
		visitCells(n.right, q, visit)
	}
}

// Depth returns the height of the cut tree (1 for k=1).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil {
		return 0
	}
	if n.left == nil {
		return 1
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Regions returns the axis-aligned region of every partition implied by
// the cut tree, clipped to the given root box. Regions partition the
// root box (they are disjoint up to shared faces).
func (t *Tree) Regions(root geom.AABB) []geom.AABB {
	out := make([]geom.AABB, t.K)
	var walk func(n *node, b geom.AABB)
	walk = func(n *node, b geom.AABB) {
		if n.left == nil {
			out[n.part] = b
			return
		}
		lb, rb := b, b
		lb.Max[n.dim] = n.cut
		rb.Min[n.dim] = n.cut
		walk(n.left, lb)
		walk(n.right, rb)
	}
	walk(t.root, root)
	return out
}

// SubdomainBoxes returns the tight bounding box of each partition's
// points (Empty() for partitions with no points) — the geometric
// descriptors the ML+RCB global search broadcasts.
func SubdomainBoxes(pts []geom.Point, labels []int32, k int) []geom.AABB {
	boxes := make([]geom.AABB, k)
	for i := range boxes {
		boxes[i] = geom.Empty()
	}
	for i, p := range pts {
		boxes[labels[i]] = boxes[labels[i]].Extend(p)
	}
	return boxes
}
