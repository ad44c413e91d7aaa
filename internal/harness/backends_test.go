package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestCompareBackendsRuns: the 4-way comparison produces one row per
// leg with plausible metrics, and the multilevel leg wins on cut
// against the geometric legs (the crossover the table exists to show).
func TestCompareBackendsRuns(t *testing.T) {
	snaps := testSnaps(t, 3)
	col := obs.New()
	cmp, err := CompareBackends(context.Background(), snaps, Config{K: 6, Seed: 3, Obs: col}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.K != 6 || cmp.Snapshots != len(snaps) {
		t.Fatalf("comparison header %+v", cmp)
	}
	if len(cmp.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(cmp.Rows))
	}
	wantLegs := []string{"mcml+dt", "ml+rcb", "sfc", "bkmeans"}
	byLeg := map[string]BackendRow{}
	for i, row := range cmp.Rows {
		if row.Leg != wantLegs[i] {
			t.Errorf("row %d leg %q, want %q", i, row.Leg, wantLegs[i])
		}
		if row.Cut <= 0 || row.NRemote < 0 || row.PartitionNS <= 0 {
			t.Errorf("%s: implausible row %+v", row.Leg, row)
		}
		if row.ImbalanceFE < 1 || row.ImbalanceContact < 1 {
			t.Errorf("%s: imbalance below 1: %+v", row.Leg, row)
		}
		byLeg[row.Leg] = row
	}
	for _, leg := range []string{"sfc", "bkmeans"} {
		if byLeg[leg].Cut < byLeg["mcml+dt"].Cut {
			t.Logf("note: %s cut %.0f beats multilevel %.0f on this tiny mesh",
				leg, byLeg[leg].Cut, byLeg["mcml+dt"].Cut)
		}
	}
	// Per-leg obs counters recorded.
	counters := map[string]int64{}
	for _, c := range col.Report().Counters {
		counters[c.Name] = c.Value
	}
	for _, key := range []string{"compare_mcmldt_snapshots", "compare_mlrcb_snapshots",
		"compare_sfc_snapshots", "compare_bkmeans_snapshots"} {
		if counters[key] != int64(len(snaps)) {
			t.Errorf("counter %s = %d, want %d", key, counters[key], len(snaps))
		}
	}
}

// TestCompareBackendsDeterministic: everything except the wall-clock
// PartitionNS is identical across reruns and across serial vs
// concurrent legs.
func TestCompareBackendsDeterministic(t *testing.T) {
	snaps := testSnaps(t, 2)
	strip := func(c *BackendComparison) []BackendRow {
		rows := append([]BackendRow(nil), c.Rows...)
		for i := range rows {
			rows[i].PartitionNS = 0
		}
		return rows
	}
	a, err := CompareBackends(context.Background(), snaps, Config{K: 4, Seed: 7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompareBackends(context.Background(), snaps, Config{K: 4, Seed: 7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompareBackends(context.Background(), snaps, Config{K: 4, Seed: 7, SerialLegs: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb, rc := strip(a), strip(b), strip(c)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Errorf("rerun diverged at row %d: %+v vs %+v", i, ra[i], rb[i])
		}
		if ra[i] != rc[i] {
			t.Errorf("serial legs diverged at row %d: %+v vs %+v", i, ra[i], rc[i])
		}
	}
}

// TestBackendCheckpointResume: the kill/resume fidelity gate for the
// new geometric backends — a sweep over sfc and bkmeans configs killed
// mid-run and resumed from its checkpoint must emit byte-identical
// results, mirroring TestCheckpointResumeByteIdentical.
func TestBackendCheckpointResume(t *testing.T) {
	snaps := testSnaps(t, 3)
	cfgs := []Config{
		{K: 4, Seed: 2, Backend: "sfc"},
		{K: 4, Seed: 2, Backend: "bkmeans"},
	}
	want, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := marshalResults(t, want)

	for killAt := 1; killAt < len(snaps); killAt++ {
		path := filepath.Join(t.TempDir(), "backends.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		ck := NewCheckpointer(path, snaps, cfgs)
		ck.AfterFlush = func(exp, cursor int) {
			if exp == 0 && cursor == killAt {
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
		got, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 2, Checkpoint: ck2})
		if err != nil {
			t.Fatalf("killAt=%d: resume failed: %v", killAt, err)
		}
		if gotJSON := marshalResults(t, got); !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("killAt=%d: resumed results differ from uninterrupted run\n got: %s\nwant: %s",
				killAt, gotJSON, wantJSON)
		}
	}
}

// TestBackendConfigHashCompat pins the checkpoint-hash compatibility
// contract: configs expressible before the backend selector existed
// ("", "multilevel", "rcb") hash exactly as their historical geo=bool
// forms did, so pre-existing checkpoints stay loadable; new backends
// get distinct hashes.
func TestBackendConfigHashCompat(t *testing.T) {
	snaps := testSnaps(t, 1)
	h := func(c Config) string { return configHash(snaps, []Config{c}) }
	if h(Config{K: 4, Seed: 1}) != h(Config{K: 4, Seed: 1, Backend: "multilevel"}) {
		t.Error("multilevel alias changed the hash")
	}
	base := h(Config{K: 4, Seed: 1})
	for _, be := range []string{"rcb", "sfc", "bkmeans"} {
		if h(Config{K: 4, Seed: 1, Backend: be}) == base {
			t.Errorf("backend %s hashes like multilevel", be)
		}
	}
	if h(Config{K: 4, Seed: 1, Backend: "sfc"}) == h(Config{K: 4, Seed: 1, Backend: "bkmeans"}) {
		t.Error("sfc and bkmeans share a hash")
	}
}
