package contact

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rcb"
)

// FuzzBoxFilterCells checks BoxFilter's cut-tree walk against its
// linear scan over every subdomain box. Points sit on a coarse integer grid,
// so many coincide and many lie on cut planes; queries take half-grid
// coordinates, so their faces often lie on a cut plane or a subdomain
// box face. k runs from 1 past the point count (empty subdomains), and
// the tree is optionally refitted to a moved point set of another size.
func FuzzBoxFilterCells(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(4), uint8(3), false, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(int64(2), uint8(3), uint8(8), uint8(2), true, []byte{1, 1, 1, 1, 1, 1})
	f.Add(int64(3), uint8(20), uint8(0), uint8(4), false, []byte{7, 0, 7, 0, 7, 0})
	f.Add(int64(4), uint8(90), uint8(11), uint8(1), true, []byte{2, 3, 2, 3, 5, 5})
	f.Fuzz(func(t *testing.T, seed int64, n uint8, k uint8, grid uint8, update bool, q []byte) {
		r := rand.New(rand.NewSource(seed))
		dim, K, g := 2+int(seed&1), int(k%12)+1, int(grid%6)+1
		randPts := func(n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				for d := 0; d < dim; d++ {
					pts[i][d] = float64(r.Intn(g + 1))
				}
			}
			return pts
		}
		pts := randPts(int(n))
		tree, labels, err := rcb.Build(pts, dim, K)
		if err != nil {
			t.Fatal(err)
		}
		if update {
			pts = randPts(r.Intn(2*int(n) + 2))
			labels = tree.Update(pts)
		}
		sub := rcb.SubdomainBoxes(pts, labels, K)
		walk := &BoxFilter{Boxes: sub, Dim: dim, Cells: tree}
		scan := &BoxFilter{Boxes: sub, Dim: dim}

		// Queries: every subdomain box and every point as given, then
		// boxes spelled by the fuzz bytes.
		queries := append([]geom.AABB(nil), sub...)
		for _, p := range pts {
			queries = append(queries, geom.AABB{Min: p, Max: p})
		}
		for ; len(q) >= 2*dim; q = q[2*dim:] {
			var b geom.AABB
			for d := 0; d < dim; d++ {
				lo := float64(int(q[2*d])%(2*g+3))/2 - 0.5
				hi := float64(int(q[2*d+1])%(2*g+3))/2 - 0.5
				b.Min[d], b.Max[d] = min(lo, hi), max(lo, hi)
			}
			queries = append(queries, b)
		}
		got, want := make([]bool, K), make([]bool, K)
		for _, b := range queries {
			clear(got)
			clear(want)
			walk.PartsFor(b, got)
			scan.PartsFor(b, want)
			if !slices.Equal(got, want) {
				t.Fatalf("query %v: walk marks %v, scan %v", b, got, want)
			}
		}
	})
}
