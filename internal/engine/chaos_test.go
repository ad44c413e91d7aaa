package engine

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dtree"
	"repro/internal/fault"
	"repro/internal/obs"
)

// chaosSeeds is the short deterministic seed list the `make chaos`
// target runs the matrix over.
var chaosSeeds = []int64{1, 7, 42}

// chaosPlans enumerates the fault kinds of the matrix. Each entry
// either recovers by retransmission (message-level faults) or by the
// serial-degrade path (rank-level faults); in both cases the results
// must be identical to the fault-free run.
func chaosPlans(seed int64) []struct {
	name        string
	plan        *fault.Plan
	wantDegrade bool // rank-level faults always degrade
} {
	return []struct {
		name        string
		plan        *fault.Plan
		wantDegrade bool
	}{
		{"drop_first_attempt", &fault.Plan{Seed: seed, DropProb: 0.3, FirstAttemptOnly: true}, false},
		{"delay", &fault.Plan{Seed: seed, DelayProb: 0.3, DelayFor: 2 * time.Millisecond}, false},
		{"duplicate", &fault.Plan{Seed: seed, DupProb: 0.4}, false},
		{"reorder", &fault.Plan{Seed: seed, ReorderProb: 0.4}, false},
		{"mixed", &fault.Plan{Seed: seed, DropProb: 0.15, DelayProb: 0.1, DupProb: 0.1, ReorderProb: 0.1, FirstAttemptOnly: true}, false},
		// Unrestricted drops can exhaust the retry budget; the run may
		// recover by retry or by degrade, and either must be exact.
		{"drop_any_attempt", &fault.Plan{Seed: seed, DropProb: 0.25}, false},
		{"panic_rank1_phase1", &fault.Plan{Seed: seed, PanicRank: map[int]int{1: 1}}, true},
		{"panic_rank0_phase2", &fault.Plan{Seed: seed, PanicRank: map[int]int{0: 2}}, true},
		{"stall_rank1_phase2", &fault.Plan{Seed: seed, StallRank: map[int]fault.Stall{1: {Phase: 2, For: 30 * time.Second}}}, true},
		{"corrupt_tree_rank1", &fault.Plan{Seed: seed, CorruptTree: map[int]bool{1: true}}, true},
	}
}

// assertStatsIdentical compares everything numeric about two runs:
// pairs, aggregate traffic, and the per-worker tallies. The
// Degraded/Recovered markers are intentionally excluded — they are
// the only allowed difference.
func assertStatsIdentical(t *testing.T, name string, want, got *Stats) {
	t.Helper()
	if got.K != want.K || got.GhostUnits != want.GhostUnits ||
		got.ElemsShipped != want.ElemsShipped || got.TreeBytes != want.TreeBytes {
		t.Fatalf("%s: aggregates differ: got {K:%d G:%d E:%d T:%d}, want {K:%d G:%d E:%d T:%d}",
			name, got.K, got.GhostUnits, got.ElemsShipped, got.TreeBytes,
			want.K, want.GhostUnits, want.ElemsShipped, want.TreeBytes)
	}
	if len(got.PerWorker) != len(want.PerWorker) {
		t.Fatalf("%s: per-worker lengths differ", name)
	}
	for i := range want.PerWorker {
		if got.PerWorker[i] != want.PerWorker[i] {
			t.Fatalf("%s: worker %d stats differ: got %+v, want %+v",
				name, i, got.PerWorker[i], want.PerWorker[i])
		}
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: pair counts differ: got %d, want %d", name, len(got.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("%s: pair %d differs: got %+v, want %+v", name, i, got.Pairs[i], want.Pairs[i])
		}
	}
}

// TestChaosMatrix is the chaos determinism gate: for every seed ×
// fault kind × k, engine.Run under injected faults must produce
// Pairs and communication Stats identical to the fault-free run —
// whether it recovered by retransmission or by serial degrade.
func TestChaosMatrix(t *testing.T) {
	for _, k := range []int{2, 5} {
		sn, d := testSetup(t, k, 30)
		const tol = 0.5
		baseline, err := Run(context.Background(), sn.Mesh, d, tol, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range chaosSeeds {
			for _, c := range chaosPlans(seed) {
				if c.wantDegrade && k < 2 {
					continue
				}
				name := c.name
				plan := c.plan
				wantDegrade := c.wantDegrade
				t.Run(name, func(t *testing.T) {
					col := obs.New()
					// The deadline only has to outlast the retry
					// schedule (5+10+20+40+80ms); keeping it tight
					// keeps the stall/exhausted-drop cases fast. A
					// spurious timeout under load just degrades, which
					// the identity assertion still covers.
					st, err := Run(context.Background(), sn.Mesh, d, tol, Options{
						Fault:        plan,
						PhaseTimeout: 800 * time.Millisecond,
						RetryBackoff: 5 * time.Millisecond,
						Obs:          col,
					})
					if err != nil {
						t.Fatalf("k=%d seed=%d %s: run failed instead of recovering: %v", k, seed, name, err)
					}
					assertStatsIdentical(t, name, baseline, st)
					if wantDegrade {
						if !st.Degraded || !st.Recovered {
							t.Fatalf("k=%d seed=%d %s: expected serial degrade, got Degraded=%v Recovered=%v",
								k, seed, name, st.Degraded, st.Recovered)
						}
						if len(st.FailedRanks) == 0 {
							t.Errorf("%s: degraded run reports no failed ranks", name)
						}
						counters := counterMap(col)
						if counters["engine_degraded_iters"] != 1 {
							t.Errorf("%s: engine_degraded_iters = %d, want 1", name, counters["engine_degraded_iters"])
						}
					}
				})
			}
		}
	}
}

func counterMap(col *obs.Collector) map[string]int64 {
	m := map[string]int64{}
	for _, c := range col.Report().Counters {
		m[c.Name] = c.Value
	}
	return m
}

// TestChaosRetriesVisible asserts the recovery machinery is
// observable: a schedule that drops every first attempt must show
// injected drops and retries on the collector while still recovering
// exactly.
func TestChaosRetriesVisible(t *testing.T) {
	sn, d := testSetup(t, 4, 30)
	const tol = 0.5
	baseline, err := Run(context.Background(), sn.Mesh, d, tol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	st, err := Run(context.Background(), sn.Mesh, d, tol, Options{
		Fault:        &fault.Plan{Seed: 3, DropProb: 0.5, FirstAttemptOnly: true},
		PhaseTimeout: 2 * time.Second,
		RetryBackoff: 2 * time.Millisecond,
		Obs:          col,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertStatsIdentical(t, "drop_visible", baseline, st)
	counters := counterMap(col)
	if counters["transport_drops_injected"] == 0 {
		t.Error("no drops recorded despite DropProb=0.5")
	}
	if !st.Degraded && counters["transport_retries"] == 0 {
		t.Error("drops recovered without any recorded retry")
	}
}

// TestCorruptTreeBroadcastDegrades pins the dtree-under-fault
// contract: a truncated/corrupted serialized tree received by one
// worker must surface as a per-rank error that triggers the serial
// degrade path — never a panic, and never a corrupted result.
func TestCorruptTreeBroadcastDegrades(t *testing.T) {
	sn, d := testSetup(t, 3, 30)
	const tol = 0.5
	baseline, err := Run(context.Background(), sn.Mesh, d, tol, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The corruption the plan injects really is undecodable.
	var buf bytes.Buffer
	if _, err := d.Descriptor.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{CorruptTree: map[int]bool{2: true}}
	if _, err := dtree.ReadTree(bytes.NewReader(plan.CorruptTreeBytes(2, buf.Bytes()))); err == nil {
		t.Fatal("corrupted tree bytes decoded cleanly; fault injection is a no-op")
	}

	st, err := Run(context.Background(), sn.Mesh, d, tol, Options{Fault: plan, PhaseTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("corrupt broadcast was not recovered: %v", err)
	}
	if !st.Degraded || !st.Recovered {
		t.Fatalf("expected degrade+recover, got Degraded=%v Recovered=%v", st.Degraded, st.Recovered)
	}
	assertStatsIdentical(t, "corrupt_tree", baseline, st)

	// With degradation disabled the same failure must surface as a
	// typed per-rank error, not a panic.
	_, err = Run(context.Background(), sn.Mesh, d, tol, Options{Fault: plan, PhaseTimeout: 2 * time.Second, NoDegrade: true})
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("NoDegrade error = %v, want *RankError", err)
	}
	if re.Rank != 2 || re.Phase != phaseElems {
		t.Errorf("RankError = rank %d phase %d, want rank 2 phase %d", re.Rank, re.Phase, phaseElems)
	}
}

// TestZeroOptionsMatchesSeedSemantics: the default path (no faults,
// no deadline) must behave exactly like the seed engine.
func TestZeroOptionsMatchesSeedSemantics(t *testing.T) {
	sn, d := testSetup(t, 6, 30)
	a, err := Run(context.Background(), sn.Mesh, d, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Degraded || a.Recovered || a.FailedRanks != nil {
		t.Errorf("fault-free run marked degraded: %+v", a)
	}
	b, err := Run(context.Background(), sn.Mesh, d, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertStatsIdentical(t, "zero_options", a, b)
}
