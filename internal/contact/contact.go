// Package contact implements the parallel global contact search of
// Section 4: every surface element, approximated by its bounding box,
// is tested against a geometric descriptor of each subdomain to decide
// which partitions it must be sent to. Two descriptor families are
// provided, matching the two algorithms the paper compares:
//
//   - BoxFilter: one bounding box per subdomain (the ML+RCB filter and
//     the classic scheme of Plimpton et al.);
//   - TreeFilter: the decision-tree space partition of Section 4.1
//     whose leaf regions contain contact points of a single partition
//     (the MCML+DT filter).
//
// The package also computes the paper's NRemote metric: the total
// number of surface elements that must be shipped to partitions other
// than their owner.
package contact

import (
	"repro/internal/dtree"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/pool"
	"repro/internal/rcb"
)

// Filter marks, for a query box, every partition whose descriptor
// intersects it. mark has length k and is left true at marked indices;
// the caller zeroes it between queries.
type Filter interface {
	PartsFor(b geom.AABB, mark []bool)
	K() int
}

// BoxFilter filters by per-subdomain bounding boxes. When Cells is the
// RCB cut tree whose subdomains' points the boxes bound, a query tests
// only the subdomains whose cells it meets (rcb.Tree.VisitCells) and
// marks the same ones a test of every box marks.
type BoxFilter struct {
	Boxes []geom.AABB
	Dim   int
	Cells *rcb.Tree
}

// PartsFor marks every subdomain whose box intersects b.
func (f *BoxFilter) PartsFor(b geom.AABB, mark []bool) {
	test := func(p int32) {
		if box := f.Boxes[p]; box.Intersects(b, f.Dim) && !box.IsEmpty(f.Dim) {
			mark[p] = true
		}
	}
	if f.Cells != nil {
		f.Cells.VisitCells(b, test)
		return
	}
	for p := range f.Boxes {
		test(int32(p))
	}
}

// K returns the number of subdomains.
func (f *BoxFilter) K() int { return len(f.Boxes) }

// TreeFilter filters by the decision-tree descriptor: partitions whose
// leaf regions intersect the query box. Labels are the contact-point
// partition labels the tree was induced on (needed for impure leaves).
// When TightBoxes is set (from dtree.Tree.PointBoxes), each leaf is
// additionally clipped to the bounding box of its own points, pruning
// the empty parts of leaf rectangles without losing completeness.
type TreeFilter struct {
	Tree       *dtree.Tree
	Labels     []int32
	TightBoxes []geom.AABB
}

// PartsFor marks every partition present in a leaf region that
// intersects b.
func (f *TreeFilter) PartsFor(b geom.AABB, mark []bool) {
	if f.TightBoxes != nil {
		f.Tree.PartsIntersectingTight(b, f.Labels, f.TightBoxes, mark)
		return
	}
	f.Tree.PartsIntersecting(b, f.Labels, mark)
}

// K returns the number of partitions the tree was induced over.
func (f *TreeFilter) K() int { return f.Tree.K }

// SurfaceOwners assigns each surface element to the partition owning
// the majority of its nodes (ties to the smaller partition id), given
// the nodal partition labels. This is where a surface element's
// contact computations happen in MCML+DT.
func SurfaceOwners(m *mesh.Mesh, labels []int32) []int32 {
	owners := make([]int32, len(m.Surface))
	for i, s := range m.Surface {
		// Facets have a handful of nodes: count each label in place.
		best, bestN := int32(0), -1
		for _, n := range s.Nodes {
			p, c := labels[n], 0
			for _, o := range s.Nodes {
				if labels[o] == p {
					c++
				}
			}
			if c > bestN || (c == bestN && p < best) {
				best, bestN = p, c
			}
		}
		owners[i] = best
	}
	return owners
}

// SurfaceBoxes returns the bounding box of every surface element,
// inflated by tol on each side (the contact-proximity tolerance).
func SurfaceBoxes(m *mesh.Mesh, tol float64) []geom.AABB {
	out := make([]geom.AABB, len(m.Surface))
	for i := range m.Surface {
		out[i] = m.SurfaceBox(i).Inflate(tol, m.Dim)
	}
	return out
}

// MaxFacetDiameter returns the largest bounding-box diagonal over the
// mesh's surface elements. Point-based descriptors (subdomain boxes of
// contact points, decision-tree leaves) are *sound* — guaranteed to
// ship every element that has a real contact within tol — only when
// the query boxes are inflated by at least tol + MaxFacetDiameter:
// the closest approach between two facets can occur mid-facet, up to a
// facet diameter away from every contact node.
func MaxFacetDiameter(m *mesh.Mesh) float64 {
	worst := 0.0
	for i := range m.Surface {
		b := m.SurfaceBox(i)
		if d := b.Extent().Norm(); d > worst {
			worst = d
		}
	}
	return worst
}

// NRemote computes the paper's NRemote metric: for every surface
// element (by its query box), the number of partitions other than its
// owner whose descriptor the box intersects, summed over elements.
// The sweep over elements runs on all cores.
func NRemote(boxes []geom.AABB, owners []int32, f Filter) int64 {
	k := f.K()
	var total int64
	for _, n := range pool.Ranges(0, len(boxes), func(lo, hi int) int64 {
		mark := make([]bool, k)
		var local int64
		for i := lo; i < hi; i++ {
			f.PartsFor(boxes[i], mark)
			for p := 0; p < k; p++ {
				if mark[p] {
					if int32(p) != owners[i] {
						local++
					}
					mark[p] = false
				}
			}
		}
		return local
	}) {
		total += n
	}
	return total
}

// CandidateSets returns, per surface element, the sorted list of
// partitions its box must be sent to (owner excluded). Used by tests
// and the examples; NRemote is the total length of these lists.
func CandidateSets(boxes []geom.AABB, owners []int32, f Filter) [][]int32 {
	k := f.K()
	mark := make([]bool, k)
	out := make([][]int32, len(boxes))
	for i, b := range boxes {
		f.PartsFor(b, mark)
		for p := 0; p < k; p++ {
			if mark[p] {
				if int32(p) != owners[i] {
					out[i] = append(out[i], int32(p))
				}
				mark[p] = false
			}
		}
	}
	return out
}

// MissedContacts verifies filter completeness against ground truth:
// for every contact point q lying inside a surface element's query
// box, the filter must have marked q's partition. It returns the
// number of (element, point) incidences the filter would have missed —
// zero for any correct descriptor.
func MissedContacts(boxes []geom.AABB, owners []int32, f Filter,
	pts []geom.Point, ptLabels []int32, dim int) int64 {
	k := f.K()
	mark := make([]bool, k)
	var missed int64
	for i, b := range boxes {
		f.PartsFor(b, mark)
		for j, q := range pts {
			if ptLabels[j] != owners[i] && b.Contains(q, dim) && !mark[ptLabels[j]] {
				missed++
			}
		}
		for p := range mark {
			mark[p] = false
		}
	}
	return missed
}
