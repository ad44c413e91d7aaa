// Package dtree implements the C4.5-style axis-parallel decision-tree
// induction of Section 4.1.1 of the paper: given labeled points in 2D
// or 3D, it recursively bisects space with axis-parallel hyperplanes,
// choosing at every node the cut that maximizes the modified gini
// splitting index
//
//	index = sqrt(Σ_i |A1,i|²) + sqrt(Σ_i |A2,i|²)      (Eq. 1)
//
// over all hyperplanes passing between successive points along each
// dimension. Each candidate is scored in O(1) by maintaining the label
// histograms (and their sums of squares) incrementally over
// per-dimension sorted orders, and the sorted orders are maintained
// through the recursion by stable partitioning, so inducing the tree
// costs O(n log n) after the initial 2-3 sorts.
//
// Two termination policies are provided, matching the two trees the
// paper builds:
//
//   - Descriptor mode splits until every leaf is pure (contains points
//     from a single partition) — the global-search filter of Section 4.1.
//   - Guidance mode keeps splitting pure nodes of at least MaxPure
//     points and stops splitting impure nodes of fewer than MaxImpure
//     points — the tree that guides the partition reshaping P -> P' of
//     Section 4.2.
package dtree

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/pool"
)

// Mode selects the termination policy.
type Mode int

const (
	// Descriptor splits every impure node that can be split.
	Descriptor Mode = iota
	// Guidance applies the max_p/max_i thresholds of Section 4.2.
	Guidance
)

// Options configures induction.
type Options struct {
	Mode Mode
	// MaxPure (max_p): in Guidance mode, pure nodes with at least this
	// many points are still split (at the median of their longest
	// extent). Ignored in Descriptor mode.
	MaxPure int
	// MaxImpure (max_i): in Guidance mode, impure nodes with fewer than
	// this many points become (impure) leaves.
	MaxImpure int
	// Parallel enables concurrent subtree induction for nodes above an
	// internal size threshold.
	Parallel bool
	// PreferWideGaps implements the improvement proposed in the
	// paper's future-work section: among hyperplanes with the same
	// splitting-index value, prefer the one passing through the widest
	// empty gap (farthest from its nearest points), which shrinks the
	// false-positive band around subdomain boundaries during contact
	// search.
	PreferWideGaps bool
}

// Node is one tree node. Internal nodes (Left >= 0) test
// p[SplitDim] <= Cut: yes goes to Left, no to Right. Leaf nodes carry
// the majority partition and the covered point range.
type Node struct {
	SplitDim int8
	Pure     bool
	Cut      float64
	Left     int32 // -1 for leaves
	Right    int32
	Part     int32 // leaf: majority partition
	Lo, Hi   int32 // leaf: points are Tree.Perm[Lo:Hi]
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left < 0 }

// Tree is an induced decision tree. Nodes[0] is the root. Perm is the
// point permutation grouped by leaf: the points of leaf l are
// Perm[Nodes[l].Lo:Nodes[l].Hi].
type Tree struct {
	Dim   int
	K     int
	Nodes []Node
	Perm  []int32
	// LeafOf[i] is the node index of the leaf containing point i.
	LeafOf []int32
}

// NumNodes returns the paper's NTNodes metric: the total number of
// tree nodes (internal plus leaves).
func (t *Tree) NumNodes() int { return len(t.Nodes) }

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() {
			n++
		}
	}
	return n
}

// Height returns the tree height (1 for a single-leaf tree).
func (t *Tree) Height() int {
	var h func(i int32) int
	h = func(i int32) int {
		n := &t.Nodes[i]
		if n.IsLeaf() {
			return 1
		}
		l, r := h(n.Left), h(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if len(t.Nodes) == 0 {
		return 0
	}
	return int(h(0))
}

// Build induces a decision tree over pts with partition labels in
// [0,k). Points and labels must have equal length; dim is 2 or 3.
func Build(pts []geom.Point, labels []int32, dim, k int, opt Options) (*Tree, error) {
	return BuildSorted(pts, labels, dim, k, opt, Presort(pts, dim))
}

// BuildSorted is Build over supplied per-dimension orders, as Presort
// or a Carry returns them. It permutes them in place: the tree's Perm
// is order[0].
func BuildSorted(pts []geom.Point, labels []int32, dim, k int, opt Options, order [3][]int32) (*Tree, error) {
	if dim != 2 && dim != 3 {
		return nil, fmt.Errorf("dtree: dim = %d", dim)
	}
	if k < 1 {
		return nil, fmt.Errorf("dtree: k = %d", k)
	}
	if len(pts) != len(labels) {
		return nil, fmt.Errorf("dtree: %d points but %d labels", len(pts), len(labels))
	}
	for i, l := range labels {
		if l < 0 || int(l) >= k {
			return nil, fmt.Errorf("dtree: label[%d] = %d out of [0,%d)", i, l, k)
		}
	}
	if opt.Mode == Guidance {
		if opt.MaxPure < 1 || opt.MaxImpure < 1 {
			return nil, fmt.Errorf("dtree: guidance mode needs MaxPure, MaxImpure >= 1 (got %d, %d)", opt.MaxPure, opt.MaxImpure)
		}
	}
	n := len(pts)
	for d := 0; d < dim; d++ {
		if len(order[d]) != n {
			return nil, fmt.Errorf("dtree: order[%d] has %d of %d points", d, len(order[d]), n)
		}
	}

	b := &builder{pts: pts, labels: labels, dim: dim, k: k, opt: opt, order: order,
		side: make([]bool, n), tmp: make([]int32, n)}
	var root *bnode
	if n > 0 {
		root = b.build(0, n, newScratch(k))
	}

	t := &Tree{Dim: dim, K: k, Perm: b.order[0], LeafOf: make([]int32, n)}
	if root == nil {
		return t, nil
	}
	t.flatten(root)
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.IsLeaf() {
			for _, p := range t.Perm[nd.Lo:nd.Hi] {
				t.LeafOf[p] = int32(i)
			}
		}
	}
	return t, nil
}

// bnode is the pointer form used during construction (flattened after).
type bnode struct {
	splitDim    int8
	pure        bool
	cut         float64
	left, right *bnode
	part        int32
	lo, hi      int32
}

// scratch holds per-goroutine working memory.
type scratch struct {
	cnt  []int64 // label histogram
	left []int64 // left-side histogram during sweeps
}

func newScratch(k int) *scratch {
	return &scratch{cnt: make([]int64, k), left: make([]int64, k)}
}

type builder struct {
	pts    []geom.Point
	labels []int32
	dim, k int
	opt    Options
	order  [3][]int32
	side   []bool
	// tmp is partition's scratch; concurrent subtrees use disjoint
	// [lo,hi) ranges of it.
	tmp []int32
}

// parallelCutoff is the subtree size above which children are induced
// concurrently.
const parallelCutoff = 1 << 14

// build induces the subtree covering order[*][lo:hi] and returns it.
// Scratch s is owned by this call; recursive children may get fresh
// scratch when running concurrently.
func (b *builder) build(lo, hi int, s *scratch) *bnode {
	n := hi - lo
	// Histogram of labels in range.
	for i := range s.cnt {
		s.cnt[i] = 0
	}
	major, majorCnt := int32(0), int64(-1)
	distinct := 0
	for _, p := range b.order[0][lo:hi] {
		l := b.labels[p]
		if s.cnt[l] == 0 {
			distinct++
		}
		s.cnt[l]++
		if s.cnt[l] > majorCnt || (s.cnt[l] == majorCnt && l < major) {
			major, majorCnt = l, s.cnt[l]
		}
	}
	pure := distinct <= 1

	leaf := func() *bnode {
		return &bnode{pure: pure, part: major, lo: int32(lo), hi: int32(hi)}
	}

	switch b.opt.Mode {
	case Descriptor:
		if pure {
			return leaf()
		}
	case Guidance:
		if pure && n < b.opt.MaxPure {
			return leaf()
		}
		if !pure && n < b.opt.MaxImpure {
			return leaf()
		}
	}

	var dim int
	var cut float64
	var nL int
	var ok bool
	if pure {
		// Guidance mode splitting of an oversized pure node: median of
		// the longest extent (the gini index is flat for pure sets).
		dim, cut, nL, ok = b.medianSplit(lo, hi)
	} else {
		dim, cut, nL, ok = b.bestGiniSplit(lo, hi, s)
		if !ok {
			// No separating hyperplane exists (coincident points with
			// mixed labels): fall back to a leaf.
			return leaf()
		}
	}
	if !ok {
		return leaf()
	}

	b.partition(lo, hi, dim, nL)

	nd := &bnode{splitDim: int8(dim), cut: cut, pure: pure, part: major}
	mid := lo + nL
	if b.opt.Parallel && n >= parallelCutoff {
		sub := pool.Ranges(2, 2, func(i, _ int) *bnode {
			if i == 0 {
				return b.build(lo, mid, newScratch(b.k))
			}
			return b.build(mid, hi, s)
		})
		nd.left, nd.right = sub[0], sub[1]
	} else {
		nd.left = b.build(lo, mid, s)
		nd.right = b.build(mid, hi, s)
	}
	return nd
}

// bestGiniSplit sweeps every dimension's sorted order and returns the
// hyperplane maximizing Eq. 1, with the cut taken at the midpoint
// between the bracketing coordinates. nL is the number of points on
// the <= side. ok is false when all points are coincident in every
// dimension (no candidate exists).
func (b *builder) bestGiniSplit(lo, hi int, s *scratch) (dim int, cut float64, nL int, ok bool) {
	n := hi - lo
	var totalSq int64
	for _, c := range s.cnt {
		totalSq += c * c
	}
	bestScore := math.Inf(-1)
	bestGap := -1.0
	for d := 0; d < b.dim; d++ {
		for i := range s.left {
			s.left[i] = 0
		}
		var leftSq, rightSq int64 = 0, totalSq
		ord := b.order[d][lo:hi]
		for i := 0; i < n-1; i++ {
			p := ord[i]
			l := b.labels[p]
			// Move point p from right to left.
			leftSq += 2*s.left[l] + 1
			rightSq -= 2*(s.cnt[l]-s.left[l]) - 1
			s.left[l]++
			c0, c1 := b.pts[p][d], b.pts[ord[i+1]][d]
			if c0 == c1 {
				continue // not a valid hyperplane position
			}
			score := math.Sqrt(float64(leftSq)) + math.Sqrt(float64(rightSq))
			better := score > bestScore
			if !better && b.opt.PreferWideGaps && score == bestScore && c1-c0 > bestGap {
				better = true
			}
			if better {
				bestScore = score
				bestGap = c1 - c0
				dim, cut, nL = d, cutPoint(c0, c1), i+1
				ok = true
			}
		}
	}
	return dim, cut, nL, ok
}

// medianSplit cuts at the median of the dimension with the largest
// spread; used for oversized pure nodes in Guidance mode.
func (b *builder) medianSplit(lo, hi int) (dim int, cut float64, nL int, ok bool) {
	n := hi - lo
	bestSpread := 0.0
	for d := 0; d < b.dim; d++ {
		ord := b.order[d][lo:hi]
		spread := b.pts[ord[n-1]][d] - b.pts[ord[0]][d]
		if spread > bestSpread {
			bestSpread = spread
			dim = d
		}
	}
	if bestSpread == 0 {
		return 0, 0, 0, false
	}
	ord := b.order[dim][lo:hi]
	// Find a valid hyperplane position nearest to the median.
	mid := n / 2
	for off := 0; off < n; off++ {
		for _, i := range []int{mid - off, mid + off} {
			if i < 1 || i >= n {
				continue
			}
			c0, c1 := b.pts[ord[i-1]][dim], b.pts[ord[i]][dim]
			if c0 != c1 {
				return dim, cutPoint(c0, c1), i, true
			}
		}
	}
	return 0, 0, 0, false
}

// cutPoint returns a cut strictly inside [c0, c1): the midpoint, unless
// float rounding pushed it up to c1, in which case c0 is used so the
// "<= cut" convention keeps c0 on the left and c1 on the right.
func cutPoint(c0, c1 float64) float64 {
	mid := (c0 + c1) / 2
	if mid >= c1 {
		return c0
	}
	return mid
}

// partition stably splits all per-dimension sorted orders of [lo,hi)
// into the <=cut side (first nL entries) and the > side, preserving
// sortedness within each side. Side membership is taken from the split
// dimension's sorted position (the first nL entries), which by
// construction of cutPoint agrees with the "coord <= cut" test.
func (b *builder) partition(lo, hi, dim, nL int) {
	for i, p := range b.order[dim][lo:hi] {
		b.side[p] = i < nL
	}
	tmp := b.tmp[lo:hi]
	for d := 0; d < b.dim; d++ {
		ord := b.order[d][lo:hi]
		w, r := 0, 0
		for _, p := range ord {
			if b.side[p] {
				ord[w] = p
				w++
			} else {
				tmp[r] = p
				r++
			}
		}
		copy(ord[w:], tmp[:r])
	}
}

// flatten converts the pointer tree to the array form in preorder.
func (t *Tree) flatten(root *bnode) {
	var walk func(n *bnode) int32
	walk = func(n *bnode) int32 {
		idx := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, Node{
			SplitDim: n.splitDim,
			Pure:     n.pure,
			Cut:      n.cut,
			Left:     -1,
			Right:    -1,
			Part:     n.part,
			Lo:       n.lo,
			Hi:       n.hi,
		})
		if n.left != nil {
			l := walk(n.left)
			r := walk(n.right)
			t.Nodes[idx].Left = l
			t.Nodes[idx].Right = r
		}
		return idx
	}
	walk(root)
}

// LeafIndexOf locates the leaf whose region contains p.
func (t *Tree) LeafIndexOf(p geom.Point) int32 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.IsLeaf() {
			return i
		}
		if p[n.SplitDim] <= n.Cut {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// PartOf returns the majority partition of the leaf containing p.
func (t *Tree) PartOf(p geom.Point) int32 {
	return t.Nodes[t.LeafIndexOf(p)].Part
}

// LeafPoints returns the point indices covered by leaf node l
// (do not modify).
func (t *Tree) LeafPoints(l int32) []int32 {
	n := &t.Nodes[l]
	return t.Perm[n.Lo:n.Hi]
}

// VisitLeavesIntersecting walks every leaf whose region intersects box
// b, calling visit with the leaf's node index. This is the global
// search primitive: a surface element's bounding box is pushed down
// the tree, descending left, right, or both of every decision
// hyperplane (Section 4.1).
func (t *Tree) VisitLeavesIntersecting(b geom.AABB, visit func(leaf int32)) {
	if len(t.Nodes) == 0 {
		return
	}
	var stack [64]int32
	sp := 0
	stack[sp] = 0
	sp++
	for sp > 0 {
		sp--
		i := stack[sp]
		for {
			n := &t.Nodes[i]
			if n.IsLeaf() {
				visit(i)
				break
			}
			goLeft := b.Min[n.SplitDim] <= n.Cut
			goRight := b.Max[n.SplitDim] > n.Cut
			switch {
			case goLeft && goRight:
				if sp < len(stack) {
					stack[sp] = n.Right
					sp++
					i = n.Left
				} else {
					// Extremely deep trees: recurse for the overflow.
					t.visitFrom(n.Right, b, visit)
					i = n.Left
				}
			case goLeft:
				i = n.Left
			default:
				i = n.Right
			}
		}
	}
}

func (t *Tree) visitFrom(i int32, b geom.AABB, visit func(leaf int32)) {
	n := &t.Nodes[i]
	if n.IsLeaf() {
		visit(i)
		return
	}
	if b.Min[n.SplitDim] <= n.Cut {
		t.visitFrom(n.Left, b, visit)
	}
	if b.Max[n.SplitDim] > n.Cut {
		t.visitFrom(n.Right, b, visit)
	}
}

// PartsIntersecting marks in out (length K) every partition that has a
// leaf region intersecting b. Impure leaves mark every partition
// present among their points (never a false negative). out must be
// zeroed by the caller; marked entries are set true.
func (t *Tree) PartsIntersecting(b geom.AABB, labels []int32, out []bool) {
	t.VisitLeavesIntersecting(b, func(leaf int32) {
		n := &t.Nodes[leaf]
		if n.Pure {
			out[n.Part] = true
			return
		}
		for _, p := range t.Perm[n.Lo:n.Hi] {
			out[labels[p]] = true
		}
	})
}

// PointBoxes returns, indexed by node, the tight bounding box of the
// points each *leaf* covers (internal nodes get Empty()). Clipping a
// leaf's region to this box is the refinement the paper's future-work
// section motivates: a leaf's rectangle may include large empty areas,
// and a query only risks contact with the leaf's partition where its
// points actually are. Filtering against the tight box keeps the
// no-false-negative guarantee (every point is inside its leaf's box).
func (t *Tree) PointBoxes(pts []geom.Point) []geom.AABB {
	out := make([]geom.AABB, len(t.Nodes))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if !n.IsLeaf() {
			out[i] = geom.Empty()
			continue
		}
		b := geom.Empty()
		for _, p := range t.Perm[n.Lo:n.Hi] {
			b = b.Extend(pts[p])
		}
		out[i] = b
	}
	return out
}

// PartsIntersectingTight behaves like PartsIntersecting but
// additionally requires the query box to intersect the leaf's tight
// point box (from PointBoxes).
func (t *Tree) PartsIntersectingTight(b geom.AABB, labels []int32, boxes []geom.AABB, out []bool) {
	t.VisitLeavesIntersecting(b, func(leaf int32) {
		if !boxes[leaf].Intersects(b, t.Dim) {
			return
		}
		n := &t.Nodes[leaf]
		if n.Pure {
			out[n.Part] = true
			return
		}
		for _, p := range t.Perm[n.Lo:n.Hi] {
			out[labels[p]] = true
		}
	})
}

// LeafRegions returns the axis-aligned region of every node (internal
// regions included), clipped to root. Regions of leaves partition root.
func (t *Tree) LeafRegions(root geom.AABB) []geom.AABB {
	out := make([]geom.AABB, len(t.Nodes))
	var walk func(i int32, b geom.AABB)
	walk = func(i int32, b geom.AABB) {
		out[i] = b
		n := &t.Nodes[i]
		if n.IsLeaf() {
			return
		}
		lb, rb := b, b
		lb.Max[n.SplitDim] = n.Cut
		rb.Min[n.SplitDim] = n.Cut
		walk(n.Left, lb)
		walk(n.Right, rb)
	}
	if len(t.Nodes) > 0 {
		walk(0, root)
	}
	return out
}
