package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/contact"
	"repro/internal/core"
	"repro/internal/dtree"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

func testSnaps(t *testing.T, n, steps int) []sim.Snapshot {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Scene.PlateNX, cfg.Scene.PlateNY, cfg.Scene.PlateNZ = 12, 12, 2
	cfg.Scene.ProjN, cfg.Scene.ProjLen = 2, 6
	cfg.Scene.ContactRadius = 4
	cfg.Steps = steps
	cfg.Snapshots = n
	snaps, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

func testSetup(t *testing.T, k int, steps int) (*sim.Snapshot, *core.Decomposition) {
	t.Helper()
	snaps := testSnaps(t, 2, steps)
	sn := snaps[len(snaps)-1]
	d, err := core.Decompose(sn.Mesh, core.Config{K: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &sn, d
}

// carriedSetup decomposes the first of four snapshots and carries its
// labels, by persistent node id, to the last one, re-inducing only the
// descriptor (core.DescriptorFor) — the paper's default update
// strategy between repartitions.
func carriedSetup(t *testing.T, k int) (*sim.Snapshot, *core.Decomposition) {
	t.Helper()
	snaps := testSnaps(t, 4, 40)
	d0, err := core.Decompose(snaps[0].Mesh, core.Config{K: k, Seed: 1, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int64]int32, len(snaps[0].NodeID))
	for v, id := range snaps[0].NodeID {
		byID[id] = d0.Labels[v]
	}
	sn := snaps[len(snaps)-1]
	labels := make([]int32, sn.Mesh.NumNodes())
	for v, id := range sn.NodeID {
		labels[v] = byID[id]
	}
	tree, nodes, pts, cl, err := core.DescriptorFor(sn.Mesh, labels, d0.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &sn, &core.Decomposition{
		Cfg:           d0.Cfg,
		Graph:         sn.Mesh.NodalGraph(d0.Cfg.Nodal),
		Labels:        labels,
		Descriptor:    tree,
		ContactNodes:  nodes,
		ContactPoints: pts,
		ContactLabels: cl,
	}
}

func TestGhostTrafficEqualsCommVolume(t *testing.T) {
	sn, d := testSetup(t, 6, 30)
	st, err := Run(context.Background(), sn.Mesh, d, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := metrics.CommVolume(d.Graph, d.Labels, 6)
	if st.GhostUnits != want {
		t.Errorf("ghost units %d != CommVolume %d", st.GhostUnits, want)
	}
	// Sent must equal received in aggregate.
	var recv int64
	for _, ws := range st.PerWorker {
		recv += ws.GhostsRecv
	}
	if recv != st.GhostUnits {
		t.Errorf("received %d != sent %d", recv, st.GhostUnits)
	}
}

func TestElementTrafficEqualsNRemote(t *testing.T) {
	sn, d := testSetup(t, 6, 30)
	const tol = 0.5
	st, err := Run(context.Background(), sn.Mesh, d, tol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	searchTol := tol + contact.MaxFacetDiameter(sn.Mesh)
	owners := contact.SurfaceOwners(sn.Mesh, d.Labels)
	boxes := contact.SurfaceBoxes(sn.Mesh, searchTol)
	f := &contact.TreeFilter{
		Tree:       d.Descriptor,
		Labels:     d.ContactLabels,
		TightBoxes: d.Descriptor.PointBoxes(d.ContactPoints),
	}
	want := contact.NRemote(boxes, owners, f)
	if st.ElemsShipped != want {
		t.Errorf("elements shipped %d != NRemote %d", st.ElemsShipped, want)
	}
}

func TestParallelDetectionMatchesSerial(t *testing.T) {
	fresh := func(k int) func(*testing.T) (*sim.Snapshot, *core.Decomposition) {
		return func(t *testing.T) (*sim.Snapshot, *core.Decomposition) { return testSetup(t, k, 30) }
	}
	carried := func(k int) func(*testing.T) (*sim.Snapshot, *core.Decomposition) {
		return func(t *testing.T) (*sim.Snapshot, *core.Decomposition) { return carriedSetup(t, k) }
	}
	for _, tc := range []struct {
		name  string
		setup func(*testing.T) (*sim.Snapshot, *core.Decomposition)
	}{
		{"k=2", fresh(2)},
		{"k=6", fresh(6)},
		{"k=13", fresh(13)},
		{"carried_labels_k=5", carried(5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sn, d := tc.setup(t)
			const tol = 0.5
			st, err := Run(context.Background(), sn.Mesh, d, tol, Options{})
			if err != nil {
				t.Fatal(err)
			}
			serial := contact.DetectContacts(sn.Mesh, tol)
			if len(st.Pairs) != len(serial) {
				t.Fatalf("parallel found %d pairs, serial %d", len(st.Pairs), len(serial))
			}
			for i := range serial {
				if st.Pairs[i].A != serial[i].A || st.Pairs[i].B != serial[i].B {
					t.Fatalf("pair %d differs: (%d,%d) vs (%d,%d)",
						i, st.Pairs[i].A, st.Pairs[i].B, serial[i].A, serial[i].B)
				}
			}
			t.Logf("%d pairs, ghosts=%d, shipped=%d, tree=%dB",
				len(st.Pairs), st.GhostUnits, st.ElemsShipped, st.TreeBytes)
		})
	}
}

// TestRunCancelledDoesNotDegrade: cancelling the caller's ctx abandons
// the iteration — Run returns context.Canceled without waiting out the
// phase deadline of a stalled rank, and never re-executes serially.
func TestRunCancelledDoesNotDegrade(t *testing.T) {
	sn, d := testSetup(t, 4, 30)
	const phaseTimeout = 2 * time.Second
	for _, tc := range []struct {
		name        string
		cancelAfter time.Duration // 0 = cancelled before Run
	}{{"before_run", 0}, {"mid_run", 50 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelAfter == 0 {
				cancel()
			} else {
				time.AfterFunc(tc.cancelAfter, cancel)
			}
			col := obs.New()
			plan := &fault.Plan{StallRank: map[int]fault.Stall{1: {Phase: phaseElems, For: 30 * time.Second}}}
			t0 := time.Now()
			st, err := Run(ctx, sn.Mesh, d, 0.5, Options{Fault: plan, PhaseTimeout: phaseTimeout, Obs: col})
			if elapsed := time.Since(t0); elapsed >= phaseTimeout {
				t.Errorf("cancelled Run took %v, not below the %v phase deadline", elapsed, phaseTimeout)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if st != nil && st.Degraded {
				t.Errorf("cancelled run degraded: %+v", st)
			}
			for _, c := range col.Report().Counters {
				if c.Name == "engine_degraded_iters" && c.Value != 0 {
					t.Errorf("engine_degraded_iters = %d, want 0", c.Value)
				}
			}
		})
	}
}

// TestAsymmetricShippingRegression pins the localSearch reporting-rule
// fix: when the tree filter ships element A to owner(B) without
// shipping B to owner(A), the canonical owner of A never sees the
// pair, and only the fallback rule ("rank owns B and A was received
// here") reports it. The decomposition is built by hand so the
// asymmetry is guaranteed: partition 0's contact point sits far from
// both facets, so nothing is ever shipped to rank 0, while partition
// 1's contact point sits between the facets, so A ships to rank 1.
// Before the fix, engine.Run returned zero pairs here while serial
// detection finds one.
func TestAsymmetricShippingRegression(t *testing.T) {
	// Two unit segments on the x-axis, 0.2 apart: facet A (nodes 0-1,
	// partition 0) and facet B (nodes 2-3, partition 1).
	m := &mesh.Mesh{
		Dim: 2,
		Coords: []geom.Point{
			geom.P2(0, 0), geom.P2(1, 0),
			geom.P2(1.2, 0), geom.P2(2.2, 0),
		},
		EPtr: []int32{0},
		Surface: []mesh.SurfaceElem{
			{Nodes: []int32{0, 1}, Elem: -1},
			{Nodes: []int32{2, 3}, Elem: -1},
		},
	}
	labels := []int32{0, 0, 1, 1}

	// Descriptor tree over one contact point per partition. Partition
	// 0's point is far left: its tight leaf box intersects neither
	// inflated facet box, so the filter never ships anything to rank 0.
	// Partition 1's point lies between the facets, so A's box reaches
	// it and A ships to rank 1.
	pts := []geom.Point{geom.P2(-10, 0), geom.P2(1.5, 0)}
	ptLabels := []int32{0, 1}
	tree, err := dtree.Build(pts, ptLabels, 2, 2, dtree.Options{Mode: dtree.Descriptor})
	if err != nil {
		t.Fatal(err)
	}

	d := &core.Decomposition{
		Cfg:           core.Config{K: 2},
		Graph:         graph.NewBuilder(m.NumNodes(), 1).Build(),
		Labels:        labels,
		Descriptor:    tree,
		ContactPoints: pts,
		ContactLabels: ptLabels,
	}

	const tol = 0.3
	serial := contact.DetectContacts(m, tol)
	if len(serial) != 1 {
		t.Fatalf("scene construction broken: serial found %d pairs, want 1", len(serial))
	}

	st, err := Run(context.Background(), m, d, tol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The shipping really is asymmetric: exactly one element shipped
	// (A to rank 1), nothing to rank 0.
	if st.ElemsShipped != 1 || st.PerWorker[0].ElemsRecv != 0 {
		t.Fatalf("shipping not asymmetric: shipped=%d, rank0 received=%d",
			st.ElemsShipped, st.PerWorker[0].ElemsRecv)
	}
	if len(st.Pairs) != 1 {
		t.Fatalf("parallel detection dropped the asymmetric pair: got %d pairs, want 1", len(st.Pairs))
	}
	if st.Pairs[0] != serial[0] {
		t.Errorf("pair differs: parallel %+v, serial %+v", st.Pairs[0], serial[0])
	}
}

// TestFallbackDoesNotDuplicate: when shipping is symmetric both owners
// report the pair, and the collector must fold the duplicates.
func TestFallbackDoesNotDuplicate(t *testing.T) {
	for _, k := range []int{3, 8} {
		sn, d := testSetup(t, k, 30)
		const tol = 0.5
		st, err := Run(context.Background(), sn.Mesh, d, tol, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[2]int32]bool{}
		for _, pr := range st.Pairs {
			key := [2]int32{pr.A, pr.B}
			if seen[key] {
				t.Fatalf("k=%d: duplicate pair (%d,%d)", k, pr.A, pr.B)
			}
			seen[key] = true
		}
		serial := contact.DetectContacts(sn.Mesh, tol)
		if len(st.Pairs) != len(serial) {
			t.Fatalf("k=%d: %d pairs vs serial %d", k, len(st.Pairs), len(serial))
		}
	}
}

func TestRunObservedRecordsPhases(t *testing.T) {
	sn, d := testSetup(t, 4, 30)
	col := obs.New()
	st, err := Run(context.Background(), sn.Mesh, d, 0.5, Options{Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	r := col.Report()
	phases := map[string]obs.PhaseStat{}
	for _, p := range r.Phases {
		phases[p.Name] = p
	}
	for _, name := range []string{"global_search", "local_search"} {
		p, ok := phases[name]
		if !ok {
			t.Fatalf("phase %q not recorded: %+v", name, r.Phases)
		}
		if p.Count != 4 {
			t.Errorf("%s count %d, want one per worker", name, p.Count)
		}
	}
	counters := map[string]int64{}
	for _, c := range r.Counters {
		counters[c.Name] = c.Value
	}
	if counters["elems_shipped"] != st.ElemsShipped {
		t.Errorf("elems_shipped counter %d != %d", counters["elems_shipped"], st.ElemsShipped)
	}
	if counters["pairs_detected"] != int64(len(st.Pairs)) {
		t.Errorf("pairs counter %d != %d", counters["pairs_detected"], len(st.Pairs))
	}
}

func TestRunK1NoTraffic(t *testing.T) {
	sn, d := testSetup(t, 1, 30)
	st, err := Run(context.Background(), sn.Mesh, d, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.GhostUnits != 0 || st.ElemsShipped != 0 {
		t.Errorf("k=1 had traffic: ghosts=%d elems=%d", st.GhostUnits, st.ElemsShipped)
	}
	serial := contact.DetectContacts(sn.Mesh, 0.5)
	if len(st.Pairs) != len(serial) {
		t.Errorf("k=1 pairs %d != serial %d", len(st.Pairs), len(serial))
	}
}

func TestWorkerStatsConsistent(t *testing.T) {
	sn, d := testSetup(t, 5, 30)
	st, err := Run(context.Background(), sn.Mesh, d, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var nodes, elems int
	for _, ws := range st.PerWorker {
		nodes += ws.OwnedNodes
		elems += ws.OwnedElems
	}
	if nodes != sn.Mesh.NumNodes() {
		t.Errorf("owned nodes %d != %d", nodes, sn.Mesh.NumNodes())
	}
	if elems != len(sn.Mesh.Surface) {
		t.Errorf("owned elems %d != %d", elems, len(sn.Mesh.Surface))
	}
	if st.TreeBytes <= 0 {
		t.Error("no tree broadcast")
	}
}

func TestRunDeterministicPairs(t *testing.T) {
	sn, d := testSetup(t, 4, 30)
	a, err := Run(context.Background(), sn.Mesh, d, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), sn.Mesh, d, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("pair counts differ: %d vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatal("pairs differ between runs")
		}
	}
}
