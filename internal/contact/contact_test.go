package contact

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dtree"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/pool"
)

func TestBoxFilter(t *testing.T) {
	f := &BoxFilter{
		Dim: 2,
		Boxes: []geom.AABB{
			{Min: geom.P2(0, 0), Max: geom.P2(1, 1)},
			{Min: geom.P2(2, 2), Max: geom.P2(3, 3)},
			geom.Empty(),
		},
	}
	mark := make([]bool, 3)
	f.PartsFor(geom.AABB{Min: geom.P2(0.5, 0.5), Max: geom.P2(2.5, 2.5)}, mark)
	if !mark[0] || !mark[1] {
		t.Errorf("mark = %v, want both real boxes", mark)
	}
	if mark[2] {
		t.Error("empty box matched")
	}
	mark = make([]bool, 3)
	f.PartsFor(geom.AABB{Min: geom.P2(5, 5), Max: geom.P2(6, 6)}, mark)
	if mark[0] || mark[1] || mark[2] {
		t.Errorf("distant box matched: %v", mark)
	}
}

func TestSurfaceOwnersMajority(t *testing.T) {
	m := &mesh.Mesh{
		Dim: 2,
		Coords: []geom.Point{
			geom.P2(0, 0), geom.P2(1, 0), geom.P2(2, 0), geom.P2(3, 0),
			geom.P2(4, 0), geom.P2(5, 0),
		},
		EPtr: []int32{0},
		Surface: []mesh.SurfaceElem{
			{Nodes: []int32{0, 1}, Elem: -1},
			{Nodes: []int32{1, 2}, Elem: -1},
			{Nodes: []int32{0, 1, 2}, Elem: -1},
			{Nodes: []int32{4, 5, 1, 2}, Elem: -1},
		},
	}
	labels := []int32{0, 1, 1, 1, 2, 2}
	owners := SurfaceOwners(m, labels)
	if owners[0] != 0 { // tie {0,1}: smaller id wins
		t.Errorf("owner[0] = %d, want 0", owners[0])
	}
	if owners[1] != 1 {
		t.Errorf("owner[1] = %d, want 1", owners[1])
	}
	if owners[2] != 1 { // majority 1
		t.Errorf("owner[2] = %d, want 1", owners[2])
	}
	if owners[3] != 1 { // tie {2,2,1,1}, larger id first: smaller id wins
		t.Errorf("owner[3] = %d, want 1", owners[3])
	}
}

func TestSurfaceBoxesInflate(t *testing.T) {
	m := &mesh.Mesh{
		Dim:     2,
		Coords:  []geom.Point{geom.P2(0, 0), geom.P2(2, 0)},
		EPtr:    []int32{0},
		Surface: []mesh.SurfaceElem{{Nodes: []int32{0, 1}, Elem: -1}},
	}
	b := SurfaceBoxes(m, 0.5)[0]
	if b.Min != geom.P2(-0.5, -0.5) || b.Max != geom.P2(2.5, 0.5) {
		t.Errorf("inflated box = %v", b)
	}
}

// scatterScene builds a random 2-partition point cloud plus surface
// element boxes around random points.
func scatterScene(r *rand.Rand, n, k int) (pts []geom.Point, labels []int32, boxes []geom.AABB, owners []int32) {
	pts = make([]geom.Point, n)
	labels = make([]int32, n)
	for i := range pts {
		pts[i] = geom.P2(r.Float64()*10, r.Float64()*10)
		labels[i] = int32(r.Intn(k))
	}
	ne := n / 2
	boxes = make([]geom.AABB, ne)
	owners = make([]int32, ne)
	for i := range boxes {
		c := pts[r.Intn(n)]
		h := 0.2 + r.Float64()
		boxes[i] = geom.AABB{Min: c.Sub(geom.P2(h, h)), Max: c.Add(geom.P2(h, h))}
		owners[i] = int32(r.Intn(k))
	}
	return
}

func TestNRemoteMatchesCandidateSets(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts, labels, boxes, owners := scatterScene(r, 400, 5)
	tree, err := dtree.Build(pts, labels, 2, 5, dtree.Options{Mode: dtree.Descriptor})
	if err != nil {
		t.Fatal(err)
	}
	f := &TreeFilter{Tree: tree, Labels: labels}
	nr := NRemote(boxes, owners, f)
	sets := CandidateSets(boxes, owners, f)
	var sum int64
	for _, s := range sets {
		sum += int64(len(s))
	}
	if nr != sum {
		t.Errorf("NRemote = %d, CandidateSets total = %d", nr, sum)
	}
	if nr == 0 {
		t.Error("expected some remote sends in a scattered scene")
	}
}

func TestNoFalseNegativesBothFilters(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(5)
		pts, labels, boxes, owners := scatterScene(r, 100+r.Intn(200), k)

		// Subdomain bounding boxes.
		sub := make([]geom.AABB, k)
		for p := range sub {
			sub[p] = geom.Empty()
		}
		for i, p := range pts {
			sub[labels[i]] = sub[labels[i]].Extend(p)
		}
		bf := &BoxFilter{Boxes: sub, Dim: 2}
		if MissedContacts(boxes, owners, bf, pts, labels, 2) != 0 {
			return false
		}

		tree, err := dtree.Build(pts, labels, 2, k, dtree.Options{Mode: dtree.Descriptor})
		if err != nil {
			return false
		}
		tf := &TreeFilter{Tree: tree, Labels: labels}
		return MissedContacts(boxes, owners, tf, pts, labels, 2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTreeFilterTighterThanBoxFilterOnInterleaved(t *testing.T) {
	// Two partitions interleaved in stripes: each subdomain's bounding
	// box covers everything (box filter sends every element to both),
	// while tree leaves isolate the stripes.
	r := rand.New(rand.NewSource(3))
	var pts []geom.Point
	var labels []int32
	for s := 0; s < 8; s++ {
		for i := 0; i < 40; i++ {
			x := float64(s) + 0.05 + r.Float64()*0.9
			y := r.Float64() * 10
			pts = append(pts, geom.P2(x, y))
			labels = append(labels, int32(s%2))
		}
	}
	var boxes []geom.AABB
	owners := make([]int32, 0)
	for i := 0; i < 100; i++ {
		c := pts[r.Intn(len(pts))]
		h := 0.1
		boxes = append(boxes, geom.AABB{Min: c.Sub(geom.P2(h, h)), Max: c.Add(geom.P2(h, h))})
		owners = append(owners, labels[i%len(labels)])
	}

	sub := make([]geom.AABB, 2)
	sub[0], sub[1] = geom.Empty(), geom.Empty()
	for i, p := range pts {
		sub[labels[i]] = sub[labels[i]].Extend(p)
	}
	bf := &BoxFilter{Boxes: sub, Dim: 2}
	tree, err := dtree.Build(pts, labels, 2, 2, dtree.Options{Mode: dtree.Descriptor})
	if err != nil {
		t.Fatal(err)
	}
	tf := &TreeFilter{Tree: tree, Labels: labels}

	nrBox := NRemote(boxes, owners, bf)
	nrTree := NRemote(boxes, owners, tf)
	if nrTree >= nrBox {
		t.Errorf("tree filter (%d) not tighter than box filter (%d) on interleaved stripes", nrTree, nrBox)
	}
}

func TestNRemoteParallelDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts, labels, boxes, owners := scatterScene(r, 2000, 8)
	tree, err := dtree.Build(pts, labels, 2, 8, dtree.Options{Mode: dtree.Descriptor})
	if err != nil {
		t.Fatal(err)
	}
	f := &TreeFilter{Tree: tree, Labels: labels}
	a := NRemote(boxes, owners, f)
	b := NRemote(boxes, owners, f)
	if a != b {
		t.Errorf("NRemote not deterministic: %d vs %d", a, b)
	}
}

// panicFilter panics on the query box whose lower x equals at.
type panicFilter struct{ at float64 }

func (panicFilter) K() int { return 2 }

func (f panicFilter) PartsFor(b geom.AABB, mark []bool) {
	if b.Min[0] == f.at {
		panic("filter exploded")
	}
	mark[0] = true
}

// TestNRemoteFilterPanicReachesCaller: a panic in the parallel sweep's
// last range reaches the caller's recover as a *pool.PanicError, the
// way a serial loop's panic would, instead of killing the process.
func TestNRemoteFilterPanicReachesCaller(t *testing.T) {
	boxes := make([]geom.AABB, 64)
	for i := range boxes {
		boxes[i] = geom.AABB{Min: geom.P2(float64(i), 0), Max: geom.P2(float64(i)+1, 1)}
	}
	defer func() {
		r := recover()
		if pe, ok := r.(*pool.PanicError); !ok || pe.Value != "filter exploded" {
			t.Fatalf("recovered %v, want the filter's panic as a *pool.PanicError", r)
		}
	}()
	NRemote(boxes, make([]int32, len(boxes)), panicFilter{at: 63})
	t.Fatal("NRemote returned despite the panicking filter")
}

func TestNRemoteEmptyInputs(t *testing.T) {
	f := &BoxFilter{Boxes: []geom.AABB{geom.Empty()}, Dim: 2}
	if NRemote(nil, nil, f) != 0 {
		t.Error("empty element list should have zero NRemote")
	}
}

func TestMaxFacetDiameterKnown(t *testing.T) {
	m := &mesh.Mesh{
		Dim:    3,
		Coords: []geom.Point{geom.P3(0, 0, 0), geom.P3(3, 4, 0), geom.P3(0, 0, 1), geom.P3(1, 0, 1)},
		EPtr:   []int32{0},
		Surface: []mesh.SurfaceElem{
			{Nodes: []int32{0, 1}, Elem: -1}, // diagonal 5 in xy
			{Nodes: []int32{2, 3}, Elem: -1}, // length 1
		},
	}
	if got := MaxFacetDiameter(m); got != 5 {
		t.Errorf("MaxFacetDiameter = %v, want 5", got)
	}
	empty := &mesh.Mesh{Dim: 3, EPtr: []int32{0}}
	if got := MaxFacetDiameter(empty); got != 0 {
		t.Errorf("MaxFacetDiameter(empty) = %v", got)
	}
}

func TestCandidateSetsOwnerExcluded(t *testing.T) {
	boxes := []geom.AABB{{Min: geom.P2(0, 0), Max: geom.P2(1, 1)}}
	owners := []int32{0}
	f := &BoxFilter{Dim: 2, Boxes: []geom.AABB{
		{Min: geom.P2(0, 0), Max: geom.P2(2, 2)}, // own partition: excluded
		{Min: geom.P2(0.5, 0.5), Max: geom.P2(3, 3)},
	}}
	sets := CandidateSets(boxes, owners, f)
	if len(sets[0]) != 1 || sets[0][0] != 1 {
		t.Errorf("sets = %v, want [[1]]", sets)
	}
}
