package sim

import (
	"reflect"
	"testing"

	"repro/internal/meshgen"
)

// smallConfig returns a fast configuration for tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Scene.PlateNX, cfg.Scene.PlateNY, cfg.Scene.PlateNZ = 10, 10, 2
	cfg.Scene.ProjN, cfg.Scene.ProjLen = 2, 6
	cfg.Scene.ContactRadius = 3
	cfg.Steps = 60
	cfg.Snapshots = 12
	return cfg
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Steps = 0
	if _, err := New(cfg); err == nil {
		t.Error("accepted Steps=0")
	}
	cfg = smallConfig()
	cfg.Snapshots = cfg.Steps + 1
	if _, err := New(cfg); err == nil {
		t.Error("accepted Snapshots > Steps")
	}
}

func TestProjectileDescends(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	z0 := s.TipZ()
	for i := 0; i < 10; i++ {
		s.Step()
	}
	if s.TipZ() >= z0 {
		t.Fatalf("tip did not descend: %g -> %g", z0, s.TipZ())
	}
}

func TestRunSequence(t *testing.T) {
	cfg := smallConfig()
	snaps, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != cfg.Snapshots {
		t.Fatalf("got %d snapshots, want %d", len(snaps), cfg.Snapshots)
	}
	for i, sn := range snaps {
		if err := sn.Mesh.Validate(); err != nil {
			t.Fatalf("snapshot %d invalid: %v", i, err)
		}
		if len(sn.NodeID) != sn.Mesh.NumNodes() {
			t.Fatalf("snapshot %d: %d node ids for %d nodes", i, len(sn.NodeID), sn.Mesh.NumNodes())
		}
		if len(sn.Mesh.Surface) == 0 {
			t.Fatalf("snapshot %d has no contact surface", i)
		}
		if i > 0 && sn.TipZ >= snaps[i-1].TipZ {
			t.Fatalf("snapshot %d: tip not descending", i)
		}
	}
}

func TestErosionRemovesElements(t *testing.T) {
	snaps, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, last := snaps[0].Mesh, snaps[len(snaps)-1].Mesh
	if last.NumElems() >= first.NumElems() {
		t.Fatalf("no erosion: %d -> %d elements", first.NumElems(), last.NumElems())
	}
	// The projectile must have fully traversed both plates by the end.
	if got := snaps[len(snaps)-1].TipZ; got > 0 {
		t.Errorf("final tip z = %g, want < 0 (past plate2 bottom)", got)
	}
}

func TestNodeIDsArePersistent(t *testing.T) {
	snaps, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Persistent ids never repeat within a snapshot and only ever
	// disappear (never reappear) across snapshots.
	prev := map[int64]bool{}
	for _, id := range snaps[0].NodeID {
		if prev[id] {
			t.Fatal("duplicate id in snapshot 0")
		}
		prev[id] = true
	}
	for i := 1; i < len(snaps); i++ {
		cur := map[int64]bool{}
		for _, id := range snaps[i].NodeID {
			if cur[id] {
				t.Fatalf("duplicate id in snapshot %d", i)
			}
			cur[id] = true
			if !prev[id] {
				t.Fatalf("snapshot %d: id %d appeared from nowhere", i, id)
			}
		}
		prev = cur
	}
}

func TestDeformationIsBounded(t *testing.T) {
	cfg := smallConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Record original positions by persistent id.
	orig := map[int64][3]float64{}
	for v, id := range s.nodeID {
		orig[id] = s.m.Coords[v]
	}
	for i := 0; i < cfg.Steps; i++ {
		s.Step()
	}
	sn := s.Snapshot(0)
	cell := cfg.Scene.Cell / float64(cfg.Scene.Refine)
	for v, id := range sn.NodeID {
		if s.nodeBody[v] == meshgen.Projectile {
			continue
		}
		o := orig[id]
		d := sn.Mesh.Coords[v]
		dx := [3]float64{d[0] - o[0], d[1] - o[1], d[2] - o[2]}
		norm := dx[0]*dx[0] + dx[1]*dx[1] + dx[2]*dx[2]
		if norm > (cell/2)*(cell/2)*1.0001 {
			t.Fatalf("plate node %d moved %v, beyond half cell", id, dx)
		}
	}
}

func TestContactSurfaceEvolves(t *testing.T) {
	snaps, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Erosion must expose new plate facets: the set of contact surface
	// element counts should not be constant across the run.
	counts := map[int]bool{}
	for _, sn := range snaps {
		counts[len(sn.Mesh.Surface)] = true
	}
	if len(counts) < 2 {
		t.Error("contact surface never changed across the run")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot(0)
	before := sn.Mesh.Coords[0]
	for i := 0; i < 5; i++ {
		s.Step()
	}
	if sn.Mesh.Coords[0] != before {
		t.Error("snapshot mesh mutated by later steps")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Mesh.NumNodes() != b[i].Mesh.NumNodes() ||
			a[i].Mesh.NumElems() != b[i].Mesh.NumElems() ||
			len(a[i].Mesh.Surface) != len(b[i].Mesh.Surface) {
			t.Fatalf("snapshot %d differs between runs", i)
		}
		for v := range a[i].Mesh.Coords {
			if a[i].Mesh.Coords[v] != b[i].Mesh.Coords[v] {
				t.Fatalf("snapshot %d node %d coordinates differ", i, v)
			}
		}
	}
}

func TestSimulationNeverInvertsElements(t *testing.T) {
	// The crater deformation caps displacements at half a cell, so no
	// element may ever invert over the full run.
	snaps, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range snaps {
		if n := sn.Mesh.CountInverted(); n != 0 {
			t.Fatalf("snapshot %d has %d inverted elements", sn.Index, n)
		}
	}
}

func TestErosionReducesTotalVolume(t *testing.T) {
	// With the crater bump disabled (it dilates elements around the
	// channel), erosion must monotonically remove material.
	cfg := smallConfig()
	cfg.CraterAmp = 0
	snaps, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := snaps[0].Mesh.TotalMeasure()
	for _, sn := range snaps[1:] {
		cur := sn.Mesh.TotalMeasure()
		if cur > prev+1e-9 {
			t.Fatalf("snapshot %d: volume grew %g -> %g without deformation", sn.Index, prev, cur)
		}
		prev = cur
	}
	if first, last := snaps[0].Mesh.TotalMeasure(), prev; last >= first {
		t.Errorf("total volume %g -> %g: erosion removed nothing", first, last)
	}
}

// TestSnapshotSurfaceMatchesFullRebuild checks the kept facet counts,
// the erodible-element list and the in-place compaction against full
// rebuilds on every snapshot: the surface must equal the one designated
// over a fresh BoundaryFacets match of the snapshot mesh, every element
// a scan of all elements would erode must be erodible, and the nodes
// must be numbered as a compaction from scratch numbers them.
func TestSnapshotSurfaceMatchesFullRebuild(t *testing.T) {
	paper := PaperConfig()
	paper.Scene.Refine = 1
	paper.Steps, paper.Snapshots = 100, 25
	hex := DefaultConfig()
	hex.Scene.Tets = false
	configs := map[string]Config{"default": DefaultConfig(), "paper-refine1": paper, "hex": hex}
	if testing.Short() {
		delete(configs, "paper-refine1")
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			interval := cfg.Steps / cfg.Snapshots
			eroded := 0
			for step := 1; step <= cfg.Steps; step++ {
				s.Step()
				if step%interval != 0 {
					continue
				}
				erodible := map[int32]bool{}
				for _, e := range s.erodible {
					erodible[e] = true
				}
				want := 0
				for e, b := range s.elemBody {
					if b != meshgen.Projectile && s.inChannel(e) {
						if !erodible[int32(e)] {
							t.Fatalf("step %d: element %d erodes but is not erodible", step, e)
						}
						want++
					}
				}
				ne := s.m.NumElems()
				sn := s.Snapshot(step / interval)
				if got := ne - sn.Mesh.NumElems(); got != want {
					t.Fatalf("step %d: eroded %d elements, want %d", step, got, want)
				}
				eroded += want
				if eroded > 0 {
					// Compaction numbers the nodes in order of first use
					// and drops the unused ones.
					next := int32(0)
					for _, n := range sn.Mesh.ENodes {
						if n > next {
							t.Fatalf("step %d: node %d used before node %d", step, n, next)
						}
						if n == next {
							next++
						}
					}
					if int(next) != sn.Mesh.NumNodes() {
						t.Fatalf("step %d: %d of %d nodes used", step, next, sn.Mesh.NumNodes())
					}
				}
				ref := sn.Mesh.Clone()
				meshgen.DesignateContactBy(ref, ref.BoundaryFacets(), s.info.Axis, cfg.Scene.ContactRadius, cfg.Scene.FullFaces, func(e int32) bool {
					return s.elemBody[e] == meshgen.Projectile
				})
				if !reflect.DeepEqual(sn.Mesh.Surface, ref.Surface) {
					t.Fatalf("step %d: surface of %d facets differs from the full rebuild's %d", step, len(sn.Mesh.Surface), len(ref.Surface))
				}
			}
			if eroded == 0 {
				t.Fatal("no element eroded")
			}
		})
	}
}
