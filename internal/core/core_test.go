package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/backend"
	"repro/internal/dtree"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/meshgen"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim"
)

// testMesh returns a small projectile scene snapshot.
func testMesh(t *testing.T) *mesh.Mesh {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Scene.PlateNX, cfg.Scene.PlateNY, cfg.Scene.PlateNZ = 12, 12, 2
	cfg.Scene.ProjN, cfg.Scene.ProjLen = 2, 6
	cfg.Scene.ContactRadius = 4
	cfg.Steps = 20
	cfg.Snapshots = 2
	snaps, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return snaps[0].Mesh
}

func TestDecomposeBasics(t *testing.T) {
	m := testMesh(t)
	d, err := Decompose(m, Config{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Labels) != m.NumNodes() {
		t.Fatalf("labels length %d", len(d.Labels))
	}
	for _, l := range d.Labels {
		if l < 0 || l >= 8 {
			t.Fatalf("label %d out of range", l)
		}
	}
	s := d.Stats()
	if s.Imbalance[0] > 1.15 || s.Imbalance[1] > 1.25 {
		t.Errorf("imbalance too high: %v", s.Imbalance)
	}
	if s.NTNodes < 1 {
		t.Error("descriptor tree empty")
	}
	if s.NumContacts == 0 {
		t.Error("no contact nodes")
	}
}

func TestDecomposeK1(t *testing.T) {
	m := testMesh(t)
	d, err := Decompose(m, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range d.Labels {
		if l != 0 {
			t.Fatal("K=1 must label everything 0")
		}
	}
	if d.Descriptor.NumNodes() != 1 {
		t.Errorf("K=1 descriptor has %d nodes, want 1 leaf", d.Descriptor.NumNodes())
	}
}

func TestDecomposeRejectsBadK(t *testing.T) {
	m := testMesh(t)
	if _, err := Decompose(m, Config{K: 0}); err == nil {
		t.Error("accepted K=0")
	}
}

func TestDescriptorLeavesPure(t *testing.T) {
	m := testMesh(t)
	d, err := Decompose(m, Config{K: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Descriptor.Nodes {
		n := &d.Descriptor.Nodes[i]
		if n.IsLeaf() && !n.Pure {
			// Only coincident contact points may stay impure.
			pts := d.Descriptor.LeafPoints(int32(i))
			first := d.ContactPoints[pts[0]]
			for _, p := range pts {
				if d.ContactPoints[p] != first {
					t.Fatalf("impure descriptor leaf %d with separable points", i)
				}
			}
		}
	}
}

func TestReshapeProducesAxisParallelRegions(t *testing.T) {
	// After reshaping, every guidance-tree leaf region must contain
	// nodes of a single partition (that is what "piecewise
	// axis-parallel boundaries" means operationally).
	m := testMesh(t)
	d, err := Decompose(m, Config{K: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.GuideTree == nil {
		t.Fatal("no guidance tree")
	}
	for i := range d.GuideTree.Nodes {
		n := &d.GuideTree.Nodes[i]
		if !n.IsLeaf() {
			continue
		}
		pts := d.GuideTree.LeafPoints(int32(i))
		first := d.Labels[pts[0]]
		for _, p := range pts {
			if d.Labels[p] != first {
				t.Fatalf("guide leaf %d spans partitions %d and %d", i, first, d.Labels[p])
			}
		}
	}
}

func TestReshapeReducesTreeSize(t *testing.T) {
	m := testMesh(t)
	reshaped, err := Decompose(m, Config{K: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Decompose(m, Config{K: 8, Seed: 4, SkipReshape: true})
	if err != nil {
		t.Fatal(err)
	}
	// The whole point of P -> P' -> P'': decision-tree-friendly
	// boundaries need fewer tree nodes.
	if reshaped.Descriptor.NumNodes() > raw.Descriptor.NumNodes() {
		t.Errorf("reshaped NTNodes %d > raw %d", reshaped.Descriptor.NumNodes(), raw.Descriptor.NumNodes())
	}
}

func TestDecomposeDeterminism(t *testing.T) {
	m := testMesh(t)
	a, err := Decompose(m, Config{K: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(m, Config{K: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Labels {
		if a.Labels[v] != b.Labels[v] {
			t.Fatal("same seed gave different decompositions")
		}
	}
	if a.Descriptor.NumNodes() != b.Descriptor.NumNodes() {
		t.Fatal("same seed gave different descriptor trees")
	}
}

func TestAutoThresholdsInPaperRanges(t *testing.T) {
	n, k := 100000, 25
	cfg := Config{K: k}.withDefaults(n)
	lowP := float64(n) / math.Pow(float64(k), 1.5)
	highP := float64(n) / float64(k)
	if float64(cfg.MaxPure) < lowP || float64(cfg.MaxPure) > highP {
		t.Errorf("MaxPure %d outside paper range [%.0f, %.0f]", cfg.MaxPure, lowP, highP)
	}
	lowI := float64(n) / math.Pow(float64(k), 2.5)
	highI := float64(n) / float64(k*k)
	if float64(cfg.MaxImpure) < lowI || float64(cfg.MaxImpure) > highI {
		t.Errorf("MaxImpure %d outside paper range [%.0f, %.0f]", cfg.MaxImpure, lowI, highI)
	}
}

func TestNRemoteTightNeverWorse(t *testing.T) {
	m := testMesh(t)
	d, err := Decompose(m, Config{K: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tight := NRemote(m, d.Labels, d.Descriptor, d.ContactPoints, d.ContactLabels, 0.5, true)
	loose := NRemote(m, d.Labels, d.Descriptor, d.ContactPoints, d.ContactLabels, 0.5, false)
	if tight > loose {
		t.Errorf("tight filter NRemote %d > loose %d", tight, loose)
	}
}

func TestDescriptorForMatchesUpdateSemantics(t *testing.T) {
	// Moving contact points and re-inducing must reuse the same labels
	// but reflect the new geometry.
	m := testMesh(t)
	d, err := Decompose(m, Config{K: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	m2 := m.Clone()
	for _, n := range m2.ContactNodes() {
		m2.Coords[n] = m2.Coords[n].Add(geom.P3(0.01, 0, 0))
	}
	tree, nodes, _, labels, err := DescriptorFor(m2, d.Labels, d.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != len(d.ContactNodes) {
		t.Fatalf("contact set changed: %d vs %d", len(nodes), len(d.ContactNodes))
	}
	for i := range labels {
		if labels[i] != d.ContactLabels[i] {
			t.Fatal("labels must be carried, not recomputed")
		}
	}
	if tree.NumNodes() < 1 {
		t.Fatal("empty updated tree")
	}
}

// TestDescriptorCarryMatchesFresh: along an eroding snapshot sequence,
// the descriptor induced over a carried presort is the fresh-sort
// descriptor, node for node.
func TestDescriptorCarryMatchesFresh(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Scene.PlateNX, cfg.Scene.PlateNY, cfg.Scene.PlateNZ = 12, 12, 2
	cfg.Scene.ProjN, cfg.Scene.ProjLen = 2, 6
	cfg.Scene.ContactRadius = 4
	cfg.Steps, cfg.Snapshots = 60, 6
	snaps, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(snaps[0].Mesh, Config{K: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int64]int32{}
	for v, id := range snaps[0].NodeID {
		byID[id] = d.Labels[v]
	}
	var c dtree.Carry
	for i, sn := range snaps {
		labels := make([]int32, len(sn.NodeID))
		for v, id := range sn.NodeID {
			labels[v] = byID[id]
		}
		want, _, _, _, err := DescriptorFor(sn.Mesh, labels, d.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, _, err := Descriptor(sn.Mesh, labels, d.Cfg, &c, sn.NodeID)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Perm, want.Perm) {
			t.Fatalf("snapshot %d: carried descriptor differs from the fresh one", i)
		}
	}
}

func TestStatsAgainstMetricsPackage(t *testing.T) {
	m := testMesh(t)
	d, err := Decompose(m, Config{K: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if want := metrics.CommVolume(d.Graph, d.Labels, 4); s.FEComm != want {
		t.Errorf("FEComm %d != %d", s.FEComm, want)
	}
	if want := partition.EdgeCut(d.Graph, d.Labels); s.EdgeCut != want {
		t.Errorf("EdgeCut %d != %d", s.EdgeCut, want)
	}
}

func TestDecompose2DMesh(t *testing.T) {
	// The pipeline must handle 2D meshes end to end.
	m, err := meshgen.StructuredQuadGrid(meshgen.Grid2DSpec{Nx: 20, Ny: 20, H: geom.P2(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Bottom edge as contact surface.
	for _, f := range m.BoundaryFacets() {
		mid := (m.Coords[f.Nodes[0]][1] + m.Coords[f.Nodes[1]][1]) / 2
		if mid == 0 {
			m.Surface = append(m.Surface, f)
		}
	}
	if len(m.Surface) == 0 {
		t.Fatal("no surface designated")
	}
	d, err := Decompose(m, Config{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if d.Descriptor.Dim != 2 {
		t.Errorf("descriptor dim = %d", d.Descriptor.Dim)
	}
	if imb := d.Stats().Imbalance[0]; imb > 1.2 {
		t.Errorf("2D imbalance %v", imb)
	}
}

func TestDecomposeGeometric(t *testing.T) {
	m := testMesh(t)
	graphD, err := Decompose(m, Config{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sm := graphD.Stats()

	// Every geometric backend runs the same pipeline with its own
	// quality regime: rcb keeps box subdomains and both constraints
	// balanced; sfc balances both constraints best-effort along the
	// curve; bkmeans balances only the FE constraint.
	cases := []struct {
		backend  string
		ntFactor int64   // NTNodes bound, as a multiple of multilevel's (x10)
		imbFE    float64 // constraint-0 imbalance bound
		imbCt    float64 // constraint-1 bound (0 = unbalanced by design)
	}{
		{"rcb", 15, 1.5, 1.6},
		{"sfc", 40, 1.5, 0},
		{"bkmeans", 40, 1.4, 0},
	}
	for _, tc := range cases {
		t.Run(tc.backend, func(t *testing.T) {
			d, err := Decompose(m, Config{K: 8, Seed: 1, Backend: tc.backend})
			if err != nil {
				t.Fatal(err)
			}
			sg := d.Stats()
			if sg.NTNodes > int(int64(sm.NTNodes)*tc.ntFactor/10) {
				t.Errorf("%s NTNodes %d much larger than multilevel %d", tc.backend, sg.NTNodes, sm.NTNodes)
			}
			// The multilevel pipeline should win on communication volume.
			if sg.FEComm < sm.FEComm {
				t.Logf("note: %s FEComm %d < multilevel %d on this mesh", tc.backend, sg.FEComm, sm.FEComm)
			}
			if sg.Imbalance[0] > tc.imbFE {
				t.Errorf("%s FE imbalance %v", tc.backend, sg.Imbalance)
			}
			if tc.imbCt > 0 && sg.Imbalance[1] > tc.imbCt {
				t.Errorf("%s contact imbalance %v", tc.backend, sg.Imbalance)
			}
			t.Logf("%s: vol=%d NT=%d imb=%v; multilevel: vol=%d NT=%d imb=%v",
				tc.backend, sg.FEComm, sg.NTNodes, sg.Imbalance, sm.FEComm, sm.NTNodes, sm.Imbalance)
		})
	}
}

// redecompose is the forced-diffuse update on m's own nodal graph.
func redecompose(m *mesh.Mesh, prev []int32, cfg Config) (*Decomposition, AdaptiveOutcome, error) {
	return DecomposeGraph(m, m.NodalGraph(cfg.nodal()), prev, 0, cfg, ForceDiffuse)
}

func TestRedecomposeMigratesBounded(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Scene.PlateNX, cfg.Scene.PlateNY, cfg.Scene.PlateNZ = 12, 12, 2
	cfg.Scene.ProjN, cfg.Scene.ProjLen = 2, 6
	cfg.Scene.ContactRadius = 4
	cfg.Steps = 40
	cfg.Snapshots = 4
	snaps, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := Decompose(snaps[0].Mesh, Config{K: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Carry labels to the last snapshot via persistent ids.
	byID := map[int64]int32{}
	for v, id := range snaps[0].NodeID {
		byID[id] = d0.Labels[v]
	}
	last := snaps[len(snaps)-1]
	prev := make([]int32, last.Mesh.NumNodes())
	for v, id := range last.NodeID {
		prev[v] = byID[id]
	}
	d1, out, err := redecompose(last.Mesh, prev, Config{K: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Migrated > last.Mesh.NumNodes()/2 {
		t.Errorf("redecompose migrated %d of %d nodes", out.Migrated, last.Mesh.NumNodes())
	}
	// Migration counts the final labels that changed, reshape included,
	// not the repartitioner's own moves.
	if want := len(prev) - partition.Overlap(prev, d1.Labels); out.Migrated != want {
		t.Errorf("redecompose reports %d migrated, %d labels changed", out.Migrated, want)
	}
	s := d1.Stats()
	if s.Imbalance[0] > 1.25 {
		t.Errorf("post-redecompose imbalance %v", s.Imbalance)
	}
	if d1.Descriptor.NumNodes() < 1 {
		t.Error("no descriptor after redecompose")
	}
}

func TestRedecomposeValidates(t *testing.T) {
	m := testMesh(t)
	if _, _, err := redecompose(m, nil, Config{K: 4}); err == nil {
		t.Error("accepted wrong label length")
	}
	if _, _, err := redecompose(m, make([]int32, m.NumNodes()), Config{K: 0}); err == nil {
		t.Error("accepted K=0")
	}
}

func TestWideGapsDescriptorStillSound(t *testing.T) {
	m := testMesh(t)
	d, err := Decompose(m, Config{K: 6, Seed: 11, WideGaps: true})
	if err != nil {
		t.Fatal(err)
	}
	// The margin-aware tree classifies identically to the labels.
	for i, p := range d.ContactPoints {
		if d.Descriptor.PartOf(p) != d.ContactLabels[i] {
			t.Fatal("wide-gap tree misclassifies a contact point")
		}
	}
	base, err := Decompose(m, Config{K: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Same labels, so the trees have equal leaf populations even if
	// cuts differ.
	if d.Descriptor.NumLeaves() == 0 || base.Descriptor.NumLeaves() == 0 {
		t.Fatal("degenerate trees")
	}
	t.Logf("wide-gap NT=%d baseline NT=%d", d.Descriptor.NumNodes(), base.Descriptor.NumNodes())
}

func TestReshapeActuallyChangesLabels(t *testing.T) {
	m := testMesh(t)
	d, err := Decompose(m, Config{K: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for v := range d.Labels {
		if d.Labels[v] != d.RawLabels[v] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("reshaping changed no labels (guidance thresholds too small?)")
	}
	if changed > m.NumNodes()/2 {
		t.Errorf("reshaping rewrote %d of %d labels", changed, m.NumNodes())
	}
}

func TestNRemoteMonotoneInTolerance(t *testing.T) {
	m := testMesh(t)
	d, err := Decompose(m, Config{K: 6, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	small := d.NRemote(m, 0.1)
	big := d.NRemote(m, 2.0)
	if big < small {
		t.Errorf("NRemote not monotone in tolerance: %d at 0.1, %d at 2.0", small, big)
	}
}

// adaptiveSnaps builds a short deforming sequence for the adaptive
// warm-start tests.
func adaptiveSnaps(t *testing.T, n int) []sim.Snapshot {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Scene.PlateNX, cfg.Scene.PlateNY, cfg.Scene.PlateNZ = 12, 12, 2
	cfg.Scene.ProjN, cfg.Scene.ProjLen = 2, 6
	cfg.Scene.ContactRadius = 4
	cfg.Steps = 10 * n
	cfg.Snapshots = n
	snaps, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

func TestAdaptiveDecomposeKeepReturnsNil(t *testing.T) {
	m := testMesh(t)
	// A generous eps: reshape can push the final labels a little past a
	// tight balance cap, and this test exercises the keep path's
	// mechanics, not the threshold boundary (drift_test.go covers that).
	cfg := Config{K: 4, Seed: 1, Imbalance: 0.5}
	d, err := Decompose(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := d.Stats().EdgeCut
	// Same mesh, same labels: zero drift, zero imbalance change — the
	// policy must keep the decomposition and spend no partitioning work.
	nd, out, err := AdaptiveDecompose(m, d.Labels, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Decision != partition.DriftKeep {
		t.Fatalf("decision %v on an undrifted snapshot, want keep", out.Decision)
	}
	if nd != nil {
		t.Error("keep returned a new decomposition")
	}
	if out.Migrated != 0 {
		t.Errorf("keep migrated %d nodes", out.Migrated)
	}
	if out.BaselineCut != base {
		t.Errorf("keep changed the baseline cut: %d -> %d", base, out.BaselineCut)
	}
}

func TestAdaptiveDecomposeRepairsDrift(t *testing.T) {
	snaps := adaptiveSnaps(t, 4)
	cfg := Config{K: 6, Seed: 1}
	d0, err := Decompose(snaps[0].Mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int64]int32{}
	for v, id := range snaps[0].NodeID {
		byID[id] = d0.Labels[v]
	}
	last := snaps[len(snaps)-1]
	prev := make([]int32, last.Mesh.NumNodes())
	for v, id := range last.NodeID {
		prev[v] = byID[id]
	}
	// Force a repair with paranoid thresholds, then check the outcome
	// is a usable decomposition with accurate bookkeeping.
	cfg.Drift = partition.DriftThresholds{CutDrift: 1e-9, FullCutDrift: 1e9, FullImbalance: 1e9}
	nd, out, err := AdaptiveDecompose(last.Mesh, prev, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Decision == partition.DriftKeep {
		t.Fatal("kept despite a near-zero drift threshold")
	}
	if nd == nil {
		t.Fatal("repair returned no decomposition")
	}
	if got := partition.EdgeCut(nd.Graph, nd.Labels); out.BaselineCut != got {
		t.Errorf("baseline cut %d, final labels cut %d", out.BaselineCut, got)
	}
	want := len(prev) - partition.Overlap(prev, nd.Labels)
	if out.Migrated != want {
		t.Errorf("migrated %d, label diff says %d", out.Migrated, want)
	}
	if nd.Descriptor.NumNodes() < 1 {
		t.Error("no descriptor after adaptive repair")
	}
}

func TestAdaptiveDecomposeValidates(t *testing.T) {
	m := testMesh(t)
	if _, _, err := AdaptiveDecompose(m, nil, 0, Config{K: 4}); err == nil {
		t.Error("accepted wrong label length")
	}
	if _, _, err := AdaptiveDecompose(m, make([]int32, m.NumNodes()), 0, Config{K: 0}); err == nil {
		t.Error("accepted K=0")
	}
	if _, _, err := AdaptiveDecompose(m, make([]int32, m.NumNodes()), 0, Config{K: 4, Backend: "quadtree"}); err == nil {
		t.Error("accepted unknown backend")
	}
}

// TestWarmstartCapabilityGate pins the capability-flag regression: the
// warm-started update paths accept exactly the backends that declare
// Warmstart, and reject the geometric ones with an error naming the
// capability rather than a hard-coded backend check.
func TestWarmstartCapabilityGate(t *testing.T) {
	m := testMesh(t)
	prev := make([]int32, m.NumNodes())
	for _, name := range backend.Names() {
		be, err := backend.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		_, _, adErr := AdaptiveDecompose(m, prev, 0, Config{K: 4, Seed: 1, Backend: name})
		_, _, rdErr := redecompose(m, prev, Config{K: 4, Seed: 1, Backend: name})
		if be.Caps().Warmstart {
			if adErr != nil {
				t.Errorf("%s: AdaptiveDecompose rejected warm-start-capable backend: %v", name, adErr)
			}
			if rdErr != nil {
				t.Errorf("%s: forced diffuse rejected warm-start-capable backend: %v", name, rdErr)
			}
			continue
		}
		if adErr == nil {
			t.Errorf("%s: AdaptiveDecompose accepted a backend without Warmstart", name)
		}
		if rdErr == nil {
			t.Errorf("%s: forced diffuse accepted a backend without Warmstart", name)
		}
	}
}

// TestDecomposeGraphMatchesWrappers: DecomposeGraph on a graph the
// caller built, from scratch or derived from the previous snapshot's,
// gives the labels and descriptor of Decompose and AdaptiveDecompose,
// which build their own.
func TestDecomposeGraphMatchesWrappers(t *testing.T) {
	snaps := adaptiveSnaps(t, 3)
	cfg := Config{K: 6, Seed: 1}
	m0, m1 := snaps[0].Mesh, snaps[2].Mesh
	g0 := m0.NodalGraph(cfg.nodal())
	d0, err := Decompose(m0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got0, out0, err := DecomposeGraph(m0, g0, nil, 0, cfg, FromScratch)
	if err != nil {
		t.Fatal(err)
	}
	sameDecomposition(t, "from scratch", got0, d0)
	if want := partition.EdgeCut(g0, d0.Labels); out0.BaselineCut != want || out0.Migrated != 0 {
		t.Errorf("from scratch: baseline cut %d, migrated %d; want %d and 0", out0.BaselineCut, out0.Migrated, want)
	}

	// Carry the labels to the last snapshot and derive its graph.
	at := map[int64]int32{}
	for v, id := range snaps[0].NodeID {
		at[id] = int32(v)
	}
	prev, old := make([]int32, m1.NumNodes()), make([]int32, m1.NumNodes())
	for v, id := range snaps[2].NodeID {
		old[v] = at[id]
		prev[v] = d0.Labels[old[v]]
	}
	var ws mesh.NodalWorkspace
	g1, ok := m1.NodalGraphFrom(m0, g0, old, cfg.nodal(), &ws)
	if !ok {
		t.Fatal("derivation refused the simulator's snapshots")
	}
	cfg.Drift = partition.DriftThresholds{CutDrift: 1e-9, FullCutDrift: 1e9, FullImbalance: 1e9}
	for _, g := range []*graph.Graph{m1.NodalGraph(cfg.nodal()), g1} {
		want, wout, err := AdaptiveDecompose(m1, prev, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, gout, err := DecomposeGraph(m1, g, prev, 1, cfg, DriftPolicy)
		if err != nil {
			t.Fatal(err)
		}
		if gout != wout {
			t.Errorf("outcome %+v, AdaptiveDecompose's %+v", gout, wout)
		}
		if want == nil || got == nil {
			t.Fatal("kept despite a near-zero drift threshold")
		}
		sameDecomposition(t, "drift policy", got, want)
	}
}

// sameDecomposition fails t unless got and want carry equal labels and
// byte-identical descriptors.
func sameDecomposition(t *testing.T, what string, got, want *Decomposition) {
	t.Helper()
	if !slices.Equal(got.Labels, want.Labels) || !slices.Equal(got.RawLabels, want.RawLabels) {
		t.Errorf("%s: labels differ", what)
	}
	var gb, wb bytes.Buffer
	if _, err := got.Descriptor.WriteTo(&gb); err != nil {
		t.Fatal(err)
	}
	if _, err := want.Descriptor.WriteTo(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Errorf("%s: descriptors differ", what)
	}
}
