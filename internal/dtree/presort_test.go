package dtree

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// FuzzPresortCarry drives a Carry through random motion, erosion,
// exposure and renumbering of a point set whose coordinates sit on a
// coarse grid, so many coincide, and through calls with unusable keys:
// after every step its orders must equal a fresh Presort, and
// permuting what it returned must not disturb the next step.
func FuzzPresortCarry(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(4), []byte{0, 1, 2, 3, 0, 0, 1, 2})
	f.Add(int64(2), uint8(200), uint8(0), []byte{3, 0, 3, 1, 2, 4})
	f.Add(int64(3), uint8(0), uint8(7), []byte{2, 2, 0, 2, 1, 1})
	f.Add(int64(4), uint8(120), uint8(200), []byte{4, 4, 5, 1, 3, 0})
	f.Add(int64(5), uint8(60), uint8(3), []byte{5, 0, 5, 2, 5, 5, 0})
	f.Fuzz(func(t *testing.T, seed int64, n0 uint8, grid uint8, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		r := rand.New(rand.NewSource(seed))
		dim := 2 + int(seed&1)
		g := int(grid%8) + 1
		coord := func() float64 { return float64(r.Intn(g + 1)) }
		var pts []geom.Point
		var keys []int64
		next := int64(0)
		expose := func(n int) {
			for i := 0; i < n; i++ {
				pts = append(pts, geom.Point{coord(), coord(), coord()})
				keys = append(keys, next)
				next++
			}
		}
		expose(int(n0))

		var c Carry
		check := func(step int, op byte, keys []int64) {
			// The carry keeps the keys slice, so hand it a copy.
			got := c.Orders(pts, slices.Clone(keys), dim)
			want := Presort(pts, dim)
			for d := range want {
				if !slices.Equal(got[d], want[d]) {
					t.Fatalf("step %d (op %d), dim %d: carried order %v, fresh %v", step, op%6, d, got[d], want[d])
				}
			}
			// BuildSorted permutes its orders: the carry must not care.
			slices.Reverse(got[0])
		}
		for step, op := range append([]byte{255}, ops...) {
			switch op % 6 {
			case 0: // small motion: a few points step one grid cell
				for i := range pts {
					if r.Intn(4) == 0 {
						pts[i][r.Intn(dim)] += float64(r.Intn(3) - 1)
					}
				}
			case 1: // erosion
				w := 0
				for i := range pts {
					if r.Intn(8) != 0 {
						pts[w], keys[w] = pts[i], keys[i]
						w++
					}
				}
				pts, keys = pts[:w], keys[:w]
			case 2: // exposure
				expose(r.Intn(12))
			case 3: // renumbering
				r.Shuffle(len(pts), func(i, j int) {
					pts[i], pts[j] = pts[j], pts[i]
					keys[i], keys[j] = keys[j], keys[i]
				})
			case 4: // large motion: everything moves along one axis
				d := r.Intn(dim)
				for i := range pts {
					pts[i][d] += float64(r.Intn(2*g + 1))
				}
			case 5: // unusable keys: a negative, a duplicate or one short
				if len(keys) > 1 {
					bad := slices.Clone(keys)
					switch r.Intn(3) {
					case 0:
						bad[r.Intn(len(bad))] = -1
					case 1:
						bad[0] = bad[len(bad)-1]
					case 2:
						bad = bad[1:]
					}
					check(step, op, bad)
				}
			}
			check(step, op, keys)
		}
	})
}

func TestBuildSortedMatchesBuild(t *testing.T) {
	pts, labels := benchPoints(3000, 9)
	want, err := Build(pts, labels, 3, 9, Options{Mode: Descriptor})
	if err != nil {
		t.Fatal(err)
	}
	var c Carry
	keys := make([]int64, len(pts))
	for i := range keys {
		keys[i] = int64(i)
	}
	c.Orders(pts, keys, 3)
	got, err := BuildSorted(pts, labels, 3, 9, Options{Mode: Descriptor}, c.Orders(pts, slices.Clone(keys), 3))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Perm, want.Perm) {
		t.Fatal("tree over carried orders differs from Build's")
	}
	if _, err := BuildSorted(pts, labels, 3, 9, Options{Mode: Descriptor}, [3][]int32{}); err == nil {
		t.Error("BuildSorted accepted missing orders")
	}
}
