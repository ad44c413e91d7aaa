package contact

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/pool"
)

// This file implements the full serial contact-detection pipeline:
// BVH broad phase over inflated surface-element boxes, then the
// narrow-phase ("local search") exact facet-distance test. The paper
// only evaluates the global (inter-processor) search, but the local
// phase is what the global phase feeds, and having it lets the tests
// verify end-to-end that no filter ever loses a real contact.

// Pair is a detected contact: two surface-element indices (A < B) and
// their exact minimum distance.
type Pair struct {
	A, B int32
	Dist float64
}

// DetectContacts finds every pair of surface elements of m whose exact
// distance is at most tol, excluding pairs that share a mesh node
// (adjacent facets of the same surface are always "in contact" and are
// never interesting). The sweep is parallel over elements.
func DetectContacts(m *mesh.Mesh, tol float64) []Pair {
	ne := len(m.Surface)
	boxes := SurfaceBoxes(m, tol/2) // half on each side => centers within tol
	bvh := NewBVH(boxes, m.Dim)

	facet := func(i int32) []geom.Point {
		s := m.Surface[i]
		pts := make([]geom.Point, len(s.Nodes))
		for j, n := range s.Nodes {
			pts[j] = m.Coords[n]
		}
		return pts
	}
	shareNode := func(a, b int32) bool {
		for _, na := range m.Surface[a].Nodes {
			for _, nb := range m.Surface[b].Nodes {
				if na == nb {
					return true
				}
			}
		}
		return false
	}

	var out []Pair
	for _, local := range pool.Ranges(0, ne, func(lo, hi int) []Pair {
		var local []Pair
		for i := lo; i < hi; i++ {
			fi := facet(int32(i))
			bvh.Query(boxes, boxes[i], func(j int32) {
				if j <= int32(i) || shareNode(int32(i), j) {
					return
				}
				d := geom.FacetDist(fi, facet(j))
				if d <= tol {
					local = append(local, Pair{A: int32(i), B: j, Dist: d})
				}
			})
		}
		return local
	}) {
		out = append(out, local...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Collect merges per-rank pair reports into the canonical global
// list: duplicates folded (the engine's fallback reporting rule can
// make both owners report the same pair) and sorted by (A, B). It is
// the collector both the concurrent engine and its serial-degrade
// path feed, which is what makes their outputs comparable
// byte-for-byte.
func Collect(lists [][]Pair) []Pair {
	dedup := map[[2]int32]float64{}
	for _, l := range lists {
		for _, pr := range l {
			dedup[[2]int32{pr.A, pr.B}] = pr.Dist
		}
	}
	out := make([]Pair, 0, len(dedup))
	for ab, dist := range dedup {
		out = append(out, Pair{A: ab[0], B: ab[1], Dist: dist})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// LostContacts verifies a partition-aware global-search setup against
// the ground-truth contact pairs: for every detected contact between
// elements owned by different partitions, at least one side's filter
// candidate set must include the other side's owner (otherwise the
// parallel contact search would silently miss a real contact). It
// returns the number of lost pairs — zero for any correct filter.
func LostContacts(pairs []Pair, owners []int32, sets [][]int32) int {
	lost := 0
	for _, p := range pairs {
		oa, ob := owners[p.A], owners[p.B]
		if oa == ob {
			continue
		}
		if !containsPart(sets[p.A], ob) && !containsPart(sets[p.B], oa) {
			lost++
		}
	}
	return lost
}

func containsPart(set []int32, p int32) bool {
	for _, s := range set {
		if s == p {
			return true
		}
	}
	return false
}
