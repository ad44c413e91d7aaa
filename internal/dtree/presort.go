package dtree

import (
	"cmp"
	"slices"

	"repro/internal/geom"
)

// Presort returns the per-dimension orders Build starts from: order[d]
// lists the point indices by (pts[i][d], i). The order is strict, so
// every correct sort yields the same permutation.
func Presort(pts []geom.Point, dim int) [3][]int32 {
	var order [3][]int32
	for d := 0; d < dim && d < 3; d++ {
		order[d] = make([]int32, len(pts))
		for i := range order[d] {
			order[d][i] = int32(i)
		}
		slices.SortFunc(order[d], byCoord(pts, d))
	}
	return order
}

func byCoord(pts []geom.Point, d int) func(a, c int32) int {
	return func(a, c int32) int {
		if r := cmp.Compare(pts[a][d], pts[c][d]); r != 0 {
			return r
		}
		return cmp.Compare(a, c)
	}
}

// Carry carries the sorted orders of one point set to the next point
// set of an evolving mesh, where most points survive and barely move:
// the paper's update strategy re-induces the descriptor on such a set
// every time step. Every point has a persistent key (a node id). The
// last orders are mapped through the keys, dropping vanished points;
// an insertion sort repairs them, which is linear when they are nearly
// sorted and gives way to a full sort past an inversion budget; the
// newly exposed points are sorted and merged in. The zero Carry is
// cold: every point is new to it.
type Carry struct {
	keys  []int64    // the last point set's keys
	order [3][]int32 // the last point set's orders
	at    []int32    // key -> current point index, -1 elsewhere
}

// Orders returns Presort(pts, dim), derived from the last call's orders,
// and keeps it for the next call. keys[i] is point i's key: distinct,
// non-negative and small, since keys index a table; other keys sort
// afresh and leave the carry cold. The carry keeps keys until the next
// call. The result is the caller's: BuildSorted may permute it.
func (c *Carry) Orders(pts []geom.Point, keys []int64, dim int) [3][]int32 {
	if !c.index(keys, len(pts)) {
		*c = Carry{at: c.at}
		return Presort(pts, dim)
	}
	n := len(pts)
	seen := make([]bool, n)
	var fresh []int32
	var out [3][]int32
	for d := range c.order {
		if d >= dim {
			c.order[d] = nil
			continue
		}
		next := make([]int32, 0, n)
		clear(seen)
		for _, p := range c.order[d] {
			if i := c.at[c.keys[p]]; i >= 0 {
				next = append(next, i)
				seen[i] = true
			}
		}
		by := byCoord(pts, d)
		if !insertionSort(next, by, 4*len(next)) {
			slices.SortFunc(next, by)
		}
		fresh = fresh[:0]
		for i, s := range seen {
			if !s {
				fresh = append(fresh, int32(i))
			}
		}
		slices.SortFunc(fresh, by)
		// Merge fresh in from the back.
		o, f := next[:n], len(fresh)-1
		for i, w := len(next)-1, n-1; f >= 0; w-- {
			if i >= 0 && by(o[i], fresh[f]) > 0 {
				o[w], i = o[i], i-1
			} else {
				o[w], f = fresh[f], f-1
			}
		}
		c.order[d], out[d] = o, slices.Clone(o)
	}
	for _, k := range keys {
		c.at[k] = -1
	}
	c.keys = keys
	return out
}

// index sets c.at[keys[i]] = i and reports true, or reports false and
// leaves c.at all -1 when the keys are unusable.
func (c *Carry) index(keys []int64, n int) bool {
	if len(keys) != n {
		return false
	}
	for _, k := range keys {
		if k < 0 {
			return false
		}
		for int64(len(c.at)) <= k {
			c.at = append(c.at, -1)
		}
	}
	for i, k := range keys {
		if c.at[k] >= 0 { // duplicate key
			for _, k := range keys[:i] {
				c.at[k] = -1
			}
			return false
		}
		c.at[k] = int32(i)
	}
	return true
}

// insertionSort sorts s unless that takes more than budget element
// moves, and reports whether it finished. Either way s stays a
// permutation of its input.
func insertionSort(s []int32, cmp func(a, c int32) int, budget int) bool {
	for i := 1; i < len(s); i++ {
		x, j := s[i], i
		for ; j > 0 && cmp(x, s[j-1]) < 0; j-- {
			s[j] = s[j-1]
		}
		s[j] = x
		if budget -= i - j; budget < 0 {
			return false
		}
	}
	return true
}
