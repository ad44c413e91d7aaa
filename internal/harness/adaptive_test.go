package harness

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/partition"
)

// tightDrift forces the policy to repair aggressively: any measurable
// cut drift triggers a diffusion, and moderate drift escalates to a
// full repartition. Tests use it to make sure non-keep decisions
// actually occur on short sweeps.
func tightDrift() partition.DriftThresholds {
	return partition.DriftThresholds{CutDrift: 0.0001, FullCutDrift: 0.02, FullImbalance: 1.001}
}

// TestAdaptiveSweepRunsPolicy checks the adaptive warm-start path end
// to end: the sweep completes, every snapshot after the first records
// a drift decision in the series, and the decision counters add up to
// the number of decided snapshots.
func TestAdaptiveSweepRunsPolicy(t *testing.T) {
	snaps := testSnaps(t, 5)
	col := obs.New()
	r, err := runOne(snaps, Config{K: 6, Seed: 1, Adaptive: true, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(snaps) {
		t.Fatalf("%d rows for %d snapshots", len(r.Rows), len(snaps))
	}
	decided := 0
	for t2, ev := range r.evals {
		switch ev.Repart {
		case "":
			if t2 > 0 {
				t.Errorf("snapshot %d: no drift decision recorded", t2)
			}
		case "keep", "diffuse", "full":
			decided++
			if ev.Repart == "keep" && ev.Migrated != 0 {
				t.Errorf("snapshot %d: keep migrated %d nodes", t2, ev.Migrated)
			}
		default:
			t.Errorf("snapshot %d: unknown decision %q", t2, ev.Repart)
		}
	}
	if decided != len(snaps)-1 {
		t.Errorf("%d decisions for %d snapshots", decided, len(snaps))
	}

	rep := col.Report()
	var counted int64
	for _, c := range rep.Counters {
		switch c.Name {
		case "repartition_kept", "repartition_diffused", "repartition_full":
			counted += c.Value
		}
	}
	if counted != int64(decided) {
		t.Errorf("decision counters sum to %d, want %d (counters: %v)", counted, decided, rep.Counters)
	}
	sawDrift := false
	for _, p := range rep.Phases {
		if p.Name == "drift_eval" {
			sawDrift = true
		}
	}
	if !sawDrift {
		t.Error("drift_eval timer missing from the report")
	}

	// The series view must carry the decision and migration columns.
	pts := Series([]*Result{r})
	for _, p := range pts {
		if p.Snapshot > 0 && p.MCRepart == "" {
			t.Errorf("series snapshot %d: missing mc_repart", p.Snapshot)
		}
	}
}

// TestAdaptiveSweepDeterministicAcrossWorkers: the adaptive sweep's
// results are byte-identical for serial legs, concurrent legs, and any
// experiment worker count.
func TestAdaptiveSweepDeterministicAcrossWorkers(t *testing.T) {
	snaps := testSnaps(t, 4)
	mk := func(serialLegs bool) []Config {
		return []Config{
			{K: 4, Seed: 1, Adaptive: true, SerialLegs: serialLegs},
			{K: 6, Seed: 1, Adaptive: true, SerialLegs: serialLegs,
				Drift: tightDrift()},
		}
	}
	want, err := RunSweep(context.Background(), snaps, mk(true), SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := marshalResults(t, want)
	for _, workers := range []int{1, 2, 4} {
		got, err := RunSweep(context.Background(), snaps, mk(false), SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if gotJSON := marshalResults(t, got); !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("workers=%d: adaptive sweep results differ from serial run\n got: %s\nwant: %s",
				workers, gotJSON, wantJSON)
		}
	}
}

// TestAdaptiveResumeByteIdentical is the adaptive counterpart of
// TestCheckpointResumeByteIdentical: a killed-and-resumed adaptive
// sweep must replay the drift decisions deterministically and produce
// byte-identical results, including the per-snapshot decision series.
func TestAdaptiveResumeByteIdentical(t *testing.T) {
	snaps := testSnaps(t, 4)
	cfgs := []Config{
		{K: 5, Seed: 1, Adaptive: true, Drift: tightDrift()},
	}
	want, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := marshalResults(t, want)
	// Eval wall clocks differ run to run by nature; the decision series
	// (which snapshot kept/diffused/full, how many nodes moved) must
	// replay exactly.
	decisions := func(rs []*Result) []string {
		var out []string
		for _, p := range Series(rs) {
			out = append(out, fmt.Sprintf("%d:%s:%d", p.Snapshot, p.MCRepart, p.MCMigrated))
		}
		return out
	}
	wantDec := decisions(want)

	for killAt := 1; killAt < len(snaps); killAt++ {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		ck := NewCheckpointer(path, snaps, cfgs)
		ck.AfterFlush = func(exp, cursor int) {
			if cursor == killAt {
				cancel()
			}
		}
		if _, err := RunSweep(ctx, snaps, cfgs, SweepOptions{Workers: 1, Checkpoint: ck}); err == nil {
			t.Fatalf("killAt=%d: interrupted sweep reported success", killAt)
		}
		cancel()
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("killAt=%d: no checkpoint written: %v", killAt, err)
		}

		ck2, err := LoadCheckpoint(path, snaps, cfgs)
		if err != nil {
			t.Fatalf("killAt=%d: %v", killAt, err)
		}
		got, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 1, Checkpoint: ck2})
		if err != nil {
			t.Fatalf("killAt=%d: resume failed: %v", killAt, err)
		}
		if gotJSON := marshalResults(t, got); !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("killAt=%d: resumed adaptive results differ\n got: %s\nwant: %s",
				killAt, gotJSON, wantJSON)
		}
		if gotDec := decisions(got); !slices.Equal(gotDec, wantDec) {
			t.Fatalf("killAt=%d: resumed decision series differs\n got: %v\nwant: %v",
				killAt, gotDec, wantDec)
		}
	}
}

// TestAdaptiveCheckpointHashDistinct: an adaptive sweep must not
// resume from a non-adaptive checkpoint of the same k/seed (and vice
// versa) — the carried state differs.
func TestAdaptiveCheckpointHashDistinct(t *testing.T) {
	snaps := testSnaps(t, 2)
	plain := []Config{{K: 4, Seed: 1}}
	adaptive := []Config{{K: 4, Seed: 1, Adaptive: true}}
	if configHash(snaps, plain) == configHash(snaps, adaptive) {
		t.Fatal("adaptive and non-adaptive configs share a checkpoint hash")
	}
	// Distinct thresholds are distinct workloads too.
	tightened := []Config{{K: 4, Seed: 1, Adaptive: true, Drift: tightDrift()}}
	if configHash(snaps, adaptive) == configHash(snaps, tightened) {
		t.Fatal("different drift thresholds share a checkpoint hash")
	}
}
