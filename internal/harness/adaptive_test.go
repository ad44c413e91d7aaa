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

// TestAdaptiveSweepRunsPolicy checks every update strategy's event
// path end to end: the sweep completes with all metrics, each event is
// recorded in the series exactly at the snapshots the strategy decides,
// the rung counters add up to the number of events, and a keep
// migrates nothing.
func TestAdaptiveSweepRunsPolicy(t *testing.T) {
	snaps := testSnaps(t, 5)
	for _, tc := range []struct {
		name   string
		cfg    Config
		events []int    // snapshots that must record an event
		rungs  []string // rungs the strategy may record
	}{
		{"adaptive", Config{Adaptive: true}, []int{1, 2, 3, 4}, []string{"keep", "diffuse", "full"}},
		// The configured Drift must reach the policy: under the
		// defaults these snapshots diffuse and keep.
		{"adaptive_tight", Config{Adaptive: true, Drift: tightDrift()}, []int{1, 2, 3, 4}, []string{"full"}},
		{"every2", Config{RepartitionEvery: 2}, []int{2, 4}, []string{"full"}},
		{"every2_incremental", Config{RepartitionEvery: 2, Incremental: true}, []int{2, 4}, []string{"diffuse", "full"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := obs.New()
			cfg := tc.cfg
			cfg.K, cfg.Seed, cfg.Obs = 6, 1, col
			r, err := runOne(snaps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Rows) != len(snaps) {
				t.Fatalf("%d rows for %d snapshots", len(r.Rows), len(snaps))
			}
			if r.Avg.MCFEComm <= 0 || r.Avg.MCNTNodes <= 0 || r.Avg.MLFEComm <= 0 {
				t.Errorf("run lost metrics: %+v", r.Avg)
			}
			var got []int
			for t2, ev := range r.evals {
				if ev.Repart == "" {
					continue
				}
				got = append(got, t2)
				if !slices.Contains(tc.rungs, ev.Repart) {
					t.Errorf("snapshot %d: rung %q, want one of %v", t2, ev.Repart, tc.rungs)
				}
				if ev.Repart == "keep" && ev.Migrated != 0 {
					t.Errorf("snapshot %d: keep migrated %d nodes", t2, ev.Migrated)
				}
			}
			if !slices.Equal(got, tc.events) {
				t.Errorf("events at snapshots %v, want %v", got, tc.events)
			}

			rep := col.Report()
			var counted int64
			for _, c := range rep.Counters {
				switch c.Name {
				case "repartition_kept", "repartition_diffused", "repartition_full":
					counted += c.Value
				}
			}
			if counted != int64(len(tc.events)) {
				t.Errorf("rung counters sum to %d, want %d (counters: %v)", counted, len(tc.events), rep.Counters)
			}
			// Warm-started events grade the carried labels first; a
			// from-scratch full partition has nothing to grade.
			var graded int64
			for _, p := range rep.Phases {
				if p.Name == "drift_eval" {
					graded = p.Count
				}
			}
			wantGraded := int64(len(tc.events))
			if !tc.cfg.Adaptive && !tc.cfg.Incremental {
				wantGraded = 0
			}
			if graded != wantGraded {
				t.Errorf("drift_eval ran %d times, want %d", graded, wantGraded)
			}

			// The series view must carry the decision column.
			for _, p := range Series([]*Result{r}) {
				if want := slices.Contains(tc.events, p.Snapshot); (p.MCRepart != "") != want {
					t.Errorf("series snapshot %d: mc_repart %q", p.Snapshot, p.MCRepart)
				}
			}
		})
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
