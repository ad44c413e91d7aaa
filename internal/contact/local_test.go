package contact_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/contact"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/sim"
)

func randBoxes(r *rand.Rand, n int) []geom.AABB {
	boxes := make([]geom.AABB, n)
	for i := range boxes {
		c := geom.P3(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		h := geom.P3(r.Float64(), r.Float64(), r.Float64())
		boxes[i] = geom.AABB{Min: c.Sub(h), Max: c.Add(h)}
	}
	return boxes
}

func TestBVHQueryMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		boxes := randBoxes(r, n)
		bvh := contact.NewBVH(boxes, 3)
		for trial := 0; trial < 5; trial++ {
			q := randBoxes(r, 1)[0]
			got := map[int32]bool{}
			bvh.Query(boxes, q, func(i int32) {
				if got[i] {
					return // duplicates are allowed but harmless; dedup
				}
				got[i] = true
			})
			for i, b := range boxes {
				want := b.Intersects(q, 3)
				if got[int32(i)] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBVHEmpty(t *testing.T) {
	bvh := contact.NewBVH(nil, 3)
	bvh.Query(nil, geom.AABB{Min: geom.P3(0, 0, 0), Max: geom.P3(1, 1, 1)}, func(int32) {
		t.Error("empty BVH visited something")
	})
	if pairs := bvh.Pairs(nil); len(pairs) != 0 {
		t.Error("empty BVH has pairs")
	}
}

func TestBVHQueryOutsideWorld(t *testing.T) {
	boxes := []geom.AABB{{Min: geom.P3(0, 0, 0), Max: geom.P3(1, 1, 1)}}
	bvh := contact.NewBVH(boxes, 3)
	found := false
	bvh.Query(boxes, geom.AABB{Min: geom.P3(100, 100, 100), Max: geom.P3(101, 101, 101)}, func(int32) {
		found = true
	})
	if found {
		t.Error("distant query matched")
	}
	// A query enclosing the whole world finds the box.
	bvh.Query(boxes, geom.AABB{Min: geom.P3(-100, -100, -100), Max: geom.P3(101, 101, 101)}, func(int32) {
		found = true
	})
	if !found {
		t.Error("covering query missed the box")
	}
}

func TestBVHCoincidentBoxes(t *testing.T) {
	// Degenerate: all boxes are the same zero-extent point.
	boxes := make([]geom.AABB, 20)
	for i := range boxes {
		p := geom.P3(1, 2, 3)
		boxes[i] = geom.AABB{Min: p, Max: p}
	}
	bvh := contact.NewBVH(boxes, 3)
	got := map[int32]bool{}
	bvh.Query(boxes, geom.AABB{Min: geom.P3(0, 0, 0), Max: geom.P3(5, 5, 5)}, func(i int32) { got[i] = true })
	if len(got) != 20 {
		t.Errorf("found %d of 20 coincident boxes", len(got))
	}
	if pairs := bvh.Pairs(boxes); len(pairs) != 20*19/2 {
		t.Errorf("%d pairs among 20 coincident boxes, want %d", len(pairs), 20*19/2)
	}
}

func TestBVHPairsMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	boxes := randBoxes(r, 120)
	bvh := contact.NewBVH(boxes, 3)
	got := map[[2]int32]bool{}
	for _, p := range bvh.Pairs(boxes) {
		got[p] = true
	}
	want := 0
	for i := range boxes {
		for j := i + 1; j < len(boxes); j++ {
			if boxes[i].Intersects(boxes[j], 3) {
				want++
				if !got[[2]int32{int32(i), int32(j)}] {
					t.Fatalf("missing pair (%d,%d)", i, j)
				}
			}
		}
	}
	if len(got) != want {
		t.Fatalf("got %d pairs, want %d", len(got), want)
	}
}

// twoSheets builds a 2D mesh with two parallel horizontal contact
// lines a known distance apart.
func twoSheets(gap float64) *mesh.Mesh {
	m := &mesh.Mesh{Dim: 2, EPtr: []int32{0}}
	// Bottom line y=0 with nodes every 1, top line y=gap.
	const n = 6
	for i := 0; i <= n; i++ {
		m.Coords = append(m.Coords, geom.P2(float64(i), 0))
	}
	for i := 0; i <= n; i++ {
		m.Coords = append(m.Coords, geom.P2(float64(i), gap))
	}
	for i := 0; i < n; i++ {
		m.Surface = append(m.Surface,
			mesh.SurfaceElem{Nodes: []int32{int32(i), int32(i + 1)}, Elem: -1},
			mesh.SurfaceElem{Nodes: []int32{int32(n + 1 + i), int32(n + 2 + i)}, Elem: -1},
		)
	}
	return m
}

func TestDetectContactsKnownGap(t *testing.T) {
	m := twoSheets(1.0)
	// tol below the gap: no contacts (adjacent segments share nodes and
	// are excluded).
	if pairs := contact.DetectContacts(m, 0.5); len(pairs) != 0 {
		t.Fatalf("tol 0.5 found %d pairs across a gap of 1", len(pairs))
	}
	// tol above the gap: every bottom segment touches the facing top
	// segment (and diagonal neighbors within reach).
	pairs := contact.DetectContacts(m, 1.1)
	if len(pairs) == 0 {
		t.Fatal("tol 1.1 found no pairs across a gap of 1")
	}
	crossSheet := 0
	for _, p := range pairs {
		// Every detection is at the true distance: cross-sheet pairs at
		// the gap (1), same-sheet non-adjacent segments at spacing (1).
		if p.Dist < 0.99 || p.Dist > 1.01 {
			t.Fatalf("pair (%d,%d) distance %g, want ~1", p.A, p.B, p.Dist)
		}
		ya := m.Coords[m.Surface[p.A].Nodes[0]][1]
		yb := m.Coords[m.Surface[p.B].Nodes[0]][1]
		if ya != yb {
			crossSheet++
		}
	}
	if crossSheet == 0 {
		t.Fatal("no cross-sheet contacts detected at tol above the gap")
	}
}

func TestDetectContactsExcludesSharedNodes(t *testing.T) {
	m := twoSheets(0.5)
	pairs := contact.DetectContacts(m, 10)
	for _, p := range pairs {
		for _, na := range m.Surface[p.A].Nodes {
			for _, nb := range m.Surface[p.B].Nodes {
				if na == nb {
					t.Fatalf("pair (%d,%d) shares node %d", p.A, p.B, na)
				}
			}
		}
	}
}

func TestDetectContactsDeterministic(t *testing.T) {
	m := twoSheets(1.0)
	a := contact.DetectContacts(m, 1.5)
	b := contact.DetectContacts(m, 1.5)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pair lists differ between runs")
		}
	}
}

// TestEndToEndNoLostContacts is the pipeline's crown-jewel property:
// run the impact simulation to mid-penetration, decompose with
// MCML+DT, detect the *actual* contacts, and verify the decision-tree
// global search would have shipped every cross-partition contact pair
// to the right processor.
func TestEndToEndNoLostContacts(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Scene.PlateNX, cfg.Scene.PlateNY, cfg.Scene.PlateNZ = 12, 12, 2
	cfg.Scene.ProjN, cfg.Scene.ProjLen = 2, 6
	cfg.Scene.ContactRadius = 4
	cfg.Steps = 30
	cfg.Snapshots = 3
	snaps, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 0.6
	for _, sn := range snaps {
		m := sn.Mesh
		d, err := core.Decompose(m, core.Config{K: 6, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		pairs := contact.DetectContacts(m, tol)
		owners := contact.SurfaceOwners(m, d.Labels)
		// Soundness requires inflating by tol + the largest facet
		// diameter: the closest approach can be mid-facet, away from
		// every contact node (see MaxFacetDiameter).
		boxes := contact.SurfaceBoxes(m, tol+contact.MaxFacetDiameter(m))
		filter := &contact.TreeFilter{
			Tree:       d.Descriptor,
			Labels:     d.ContactLabels,
			TightBoxes: d.Descriptor.PointBoxes(d.ContactPoints),
		}
		sets := contact.CandidateSets(boxes, owners, filter)
		if lost := contact.LostContacts(pairs, owners, sets); lost != 0 {
			t.Fatalf("snapshot %d: %d of %d real contacts lost by the filter",
				sn.Index, lost, len(pairs))
		}
		t.Logf("snapshot %d: %d real contact pairs, all covered", sn.Index, len(pairs))
	}
}

func TestLostContactsCounts(t *testing.T) {
	pairs := []contact.Pair{{A: 0, B: 1}, {A: 0, B: 2}}
	owners := []int32{0, 1, 0}
	// Pair (0,1) crosses partitions; sets say element 0 is sent nowhere
	// and element 1 is sent nowhere -> lost. Pair (0,2) is same-owner.
	sets := [][]int32{nil, nil, nil}
	if got := contact.LostContacts(pairs, owners, sets); got != 1 {
		t.Fatalf("lost = %d, want 1", got)
	}
	// Cover it from one side.
	sets[0] = []int32{1}
	if got := contact.LostContacts(pairs, owners, sets); got != 0 {
		t.Fatalf("lost = %d, want 0", got)
	}
}
