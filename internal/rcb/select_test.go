package rcb

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// refBuild and refUpdate are the recursion Build and Update ran before
// they selected: a full sort of the subset by (coordinate, point index)
// at every cut. They are the reference the selection must match.
func refBuild(pts []geom.Point, idx, labels []int32, dim, base, k int) *node {
	if k == 1 {
		for _, i := range idx {
			labels[i] = int32(base)
		}
		return &node{part: int32(base)}
	}
	kL := (k + 1) / 2
	nL := len(idx) * kL / k
	d := splitDim(pts, idx, dim)
	refSort(pts, idx, d)
	n := &node{dim: d, cut: cutBetween(pts, idx, d, nL), kLeft: kL}
	n.left = refBuild(pts, idx[:nL], labels, dim, base, kL)
	n.right = refBuild(pts, idx[nL:], labels, dim, base+kL, k-kL)
	return n
}

func refUpdate(n *node, pts []geom.Point, idx, labels []int32, k int) {
	if n.left == nil {
		for _, i := range idx {
			labels[i] = n.part
		}
		return
	}
	nL := len(idx) * n.kLeft / k
	refSort(pts, idx, n.dim)
	n.cut = cutBetween(pts, idx, n.dim, nL)
	refUpdate(n.left, pts, idx[:nL], labels, n.kLeft)
	refUpdate(n.right, pts, idx[nL:], labels, k-n.kLeft)
}

func refSort(pts []geom.Point, idx []int32, d int) {
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]][d], pts[idx[b]][d]
		if pa != pb {
			return pa < pb
		}
		return idx[a] < idx[b]
	})
}

func iota32(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// sameTree reports where two cut trees first differ: dimension, cut
// bits, processor split or leaf part.
func sameTree(a, b *node, path string) error {
	switch {
	case (a.left == nil) != (b.left == nil):
		return fmt.Errorf("%s: leaf mismatch", path)
	case a.left == nil:
		if a.part != b.part {
			return fmt.Errorf("%s: part %d, want %d", path, a.part, b.part)
		}
		return nil
	case a.dim != b.dim || a.kLeft != b.kLeft || math.Float64bits(a.cut) != math.Float64bits(b.cut):
		return fmt.Errorf("%s: cut (dim %d, %v, kLeft %d), want (dim %d, %v, kLeft %d)",
			path, a.dim, a.cut, a.kLeft, b.dim, b.cut, b.kLeft)
	}
	if err := sameTree(a.left, b.left, path+"L"); err != nil {
		return err
	}
	return sameTree(a.right, b.right, path+"R")
}

// tiedPoints draws n points whose coordinates come from a few values,
// signed zeros among them, so most comparisons tie and fall back to the
// point index.
func tiedPoints(r *rand.Rand, n, dim, values int) []geom.Point {
	vals := []float64{math.Copysign(0, -1), 0}
	for len(vals) < values+2 {
		vals = append(vals, float64(r.Intn(2*values)-values)/4)
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		for d := 0; d < dim; d++ {
			pts[i][d] = vals[r.Intn(len(vals))]
		}
	}
	return pts
}

// FuzzRCBSelect checks Build and Update, which select, against the
// sort-based reference on point sets with heavy coordinate ties: the
// cut trees must agree bit for bit and the labels exactly, both for
// the build and for an update to a second point set of another size.
// The parallel build is forced on so its forked subtrees are covered.
func FuzzRCBSelect(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(7), false, uint8(3))
	f.Add(int64(2), uint16(1000), uint8(33), true, uint8(1))
	f.Add(int64(3), uint16(5), uint8(8), true, uint8(0))
	f.Add(int64(4), uint16(3000), uint8(25), false, uint8(200))
	old := parallelBuildCutoff
	parallelBuildCutoff = 256
	defer func() { parallelBuildCutoff = old }()
	f.Fuzz(func(t *testing.T, seed int64, n uint16, k uint8, threeD bool, values uint8) {
		r := rand.New(rand.NewSource(seed))
		dim, kk := 2, 1+int(k)%33
		if threeD {
			dim = 3
		}
		pts := tiedPoints(r, int(n)%4000, dim, 1+int(values))
		tree, labels, err := Build(pts, dim, kk)
		if err != nil {
			t.Fatal(err)
		}
		refLabels := make([]int32, len(pts))
		ref := &Tree{Dim: dim, K: kk, root: refBuild(pts, iota32(len(pts)), refLabels, dim, 0, kk)}
		if err := sameTree(tree.root, ref.root, "build "); err != nil {
			t.Fatal(err)
		}
		for i := range labels {
			if labels[i] != refLabels[i] {
				t.Fatalf("build: label[%d] = %d, want %d", i, labels[i], refLabels[i])
			}
		}

		moved := tiedPoints(r, r.Intn(len(pts)+2), dim, 1+int(values))
		labels = tree.Update(moved)
		refLabels = make([]int32, len(moved))
		refUpdate(ref.root, moved, iota32(len(moved)), refLabels, kk)
		if err := sameTree(tree.root, ref.root, "update "); err != nil {
			t.Fatal(err)
		}
		for i := range labels {
			if labels[i] != refLabels[i] {
				t.Fatalf("update: label[%d] = %d, want %d", i, labels[i], refLabels[i])
			}
		}
	})
}

// BenchmarkRCBUpdate refits a 20k-point 3-D tree to jittered points,
// as the ML+RCB baseline refits its contact-point tree every snapshot.
func BenchmarkRCBUpdate(b *testing.B) {
	for _, k := range []int{25, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			pts := randPoints(r, 20000, 3)
			tree, _, err := Build(pts, 3, k)
			if err != nil {
				b.Fatal(err)
			}
			moved := make([]geom.Point, len(pts))
			for i, p := range pts {
				for d := 0; d < 3; d++ {
					moved[i][d] = p[d] + 0.05*r.NormFloat64()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.Update(moved)
			}
		})
	}
}
