package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sim"
)

// marshalResults renders results to canonical JSON so "byte-identical
// Rows/Avg" is literal, not approximate.
func marshalResults(t *testing.T, rs []*Result) []byte {
	t.Helper()
	b, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointResumeByteIdentical is the kill/resume fidelity gate:
// a sweep killed at every possible snapshot boundary and resumed from
// its checkpoint must emit Rows and Avg byte-identical to an
// uninterrupted run. The config set includes a repartitioning
// experiment so the fast-forward path has real carried state to
// replay.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	snaps := testSnaps(t, 4)
	cfgs := []Config{
		{K: 4, Seed: 1},
		{K: 5, Seed: 1, RepartitionEvery: 2, Incremental: true},
	}
	want, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := marshalResults(t, want)

	for killAt := 1; killAt < len(snaps); killAt++ {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")

		// Phase 1: run until experiment 0 has flushed killAt snapshots,
		// then cancel — simulating a kill between snapshots.
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
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("killAt=%d: temp file left behind", killAt)
		}

		// Phase 2: load the checkpoint in a fresh process-equivalent and
		// finish the sweep.
		ck2, err := LoadCheckpoint(path, snaps, cfgs)
		if err != nil {
			t.Fatalf("killAt=%d: %v", killAt, err)
		}
		if done := ck2.Done(); done[0] < killAt {
			t.Fatalf("killAt=%d: resumed cursor %d", killAt, done[0])
		}
		col := obs.New()
		ck2.Obs = col
		got, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 2, Checkpoint: ck2})
		if err != nil {
			t.Fatalf("killAt=%d: resume failed: %v", killAt, err)
		}
		if gotJSON := marshalResults(t, got); !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("killAt=%d: resumed results differ from uninterrupted run\n got: %s\nwant: %s",
				killAt, gotJSON, wantJSON)
		}

		// Phase 3: resuming an already-complete checkpoint re-measures
		// nothing and still returns identical results.
		ck3, err := LoadCheckpoint(path, snaps, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if done := ck3.Done(); done[0] != len(snaps) || done[1] != len(snaps) {
			t.Fatalf("killAt=%d: cursors after completion = %v", killAt, done)
		}
		again, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 2, Checkpoint: ck3})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalResults(t, again), wantJSON) {
			t.Fatalf("killAt=%d: re-resumed results differ", killAt)
		}
	}
}

// TestCheckpointSkipsMeasuredLegs verifies resume actually skips the
// expensive metric evaluation for checkpointed snapshots instead of
// recomputing and discarding it.
func TestCheckpointSkipsMeasuredLegs(t *testing.T) {
	snaps := testSnaps(t, 3)
	cfgs := []Config{{K: 4, Seed: 1}}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	ck := NewCheckpointer(path, snaps, cfgs)
	ck.AfterFlush = func(exp, cursor int) {
		if cursor == 2 {
			cancel()
		}
	}
	if _, err := RunSweep(ctx, snaps, cfgs, SweepOptions{Workers: 1, Checkpoint: ck}); err == nil {
		t.Fatal("interrupted sweep reported success")
	}
	cancel()

	ck2, err := LoadCheckpoint(path, snaps, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	cfgs[0].Obs = col
	// Obs participates in neither results nor the config hash, so
	// attaching it only on resume is legal... but the hash must agree.
	if _, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 1, Checkpoint: ck2}); err != nil {
		t.Fatal(err)
	}
	for _, ph := range col.Report().Phases {
		if ph.Name == "metric_eval" && ph.Count != 2 {
			// 1 remaining snapshot × 2 legs.
			t.Errorf("metric_eval ran %d times on resume, want 2", ph.Count)
		}
	}
}

// TestCheckpointMismatchRejected: a checkpoint must refuse to resume
// a different workload rather than silently mixing results.
func TestCheckpointMismatchRejected(t *testing.T) {
	snaps := testSnaps(t, 2)
	cfgs := []Config{{K: 4, Seed: 1}}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	ck := NewCheckpointer(path, snaps, cfgs)
	if _, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 1, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadCheckpoint(path, snaps, []Config{{K: 8, Seed: 1}}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("different config: err = %v, want ErrCheckpointMismatch", err)
	}
	if _, err := LoadCheckpoint(path, snaps[:1], cfgs); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("different snapshot count: err = %v, want ErrCheckpointMismatch", err)
	}
	if _, err := LoadCheckpoint(path, snaps, append(cfgs, Config{K: 6, Seed: 1})); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("different experiment count: err = %v, want ErrCheckpointMismatch", err)
	}

	// Config changes that do not affect results must NOT invalidate
	// the checkpoint (Obs and SerialLegs are execution details).
	relaxed := []Config{{K: 4, Seed: 1, SerialLegs: true, Obs: obs.New()}}
	if _, err := LoadCheckpoint(path, snaps, relaxed); err != nil {
		t.Errorf("execution-detail config change rejected: %v", err)
	}

	// A wrong-version file is refused.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file checkpointFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	file.Version = CheckpointVersion + 1
	bumped, _ := json.Marshal(&file)
	if err := os.WriteFile(path, bumped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, snaps, cfgs); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("future version: err = %v, want ErrCheckpointMismatch", err)
	}

	// A truncated file is an error, not a panic or a silent restart.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, snaps, cfgs); err == nil {
		t.Error("truncated checkpoint loaded cleanly")
	}

	// An inconsistent cursor/rows combination is refused.
	file.Version = CheckpointVersion
	file.Experiments[0].Cursor = len(snaps) + 3
	inconsistent, _ := json.Marshal(&file)
	if err := os.WriteFile(path, inconsistent, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, snaps, cfgs); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("inconsistent cursor: err = %v, want ErrCheckpointMismatch", err)
	}
}

// TestCheckpointObsCounters: checkpoint writes are observable.
func TestCheckpointObsCounters(t *testing.T) {
	snaps := testSnaps(t, 2)
	cfgs := []Config{{K: 4, Seed: 1}}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	ck := NewCheckpointer(path, snaps, cfgs)
	col := obs.New()
	ck.Obs = col
	if _, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 1, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	rep := col.Report()
	found := false
	for _, ph := range rep.Phases {
		if ph.Name == "checkpoint_write" {
			found = true
			if ph.Count != int64(len(snaps)) {
				t.Errorf("checkpoint_write count = %d, want %d", ph.Count, len(snaps))
			}
		}
	}
	if !found {
		t.Error("no checkpoint_write phase recorded")
	}
	for _, c := range rep.Counters {
		if c.Name == "checkpoint_writes" && c.Value != int64(len(snaps)) {
			t.Errorf("checkpoint_writes = %d, want %d", c.Value, len(snaps))
		}
	}
}

// checkpointFuzzSeeds are the FuzzLoadCheckpoint seeds; tools/mkcorpus
// writes the same bytes to the checked-in corpus. "@hash@" stands for
// the fuzz workload's config hash (see FuzzLoadCheckpoint).
var checkpointFuzzSeeds = []string{
	`{"version":2,"config_hash":"@hash@","experiments":[` +
		`{"cursor":1,"rows":[{"MCFEComm":10,"MCNTNodes":3,"MCNRemote":4,"MLFEComm":9,"MLM2MComm":2,"MLUpdComm":1,"MLNRemote":5}],` +
		`"evals":[{"mc_ns":1000,"ml_ns":900,"repart":"full","migrated":7}],"imb_fe":1.02,"imb_contact":1.1},` +
		`{"cursor":0,"rows":[],"evals":[],"imb_fe":0,"imb_contact":0}],` +
		`"obs":{"phases":[{"name":"partition","count":1,"total_ns":5,"avg_ns":5,"max_ns":5}],` +
		`"counters":[{"name":"checkpoint_writes","value":1}],"gauges":[{"name":"rb_workers","value":2}],` +
		`"hists":[{"name":"metric_eval","count":2,"sum":30,"min":10,"max":20,"p50":10,"p90":20,"p99":20,` +
		`"buckets":[{"i":3,"lo":8,"hi":16,"n":1},{"i":4,"lo":16,"hi":32,"n":1}]}]}}`,
	`{"version":2,"config_hash":"@hash@","experiments":[{"cursor":3,"rows":[],"evals":[]},{"cursor":0}]}`,
	`{"version":1,"config_hash":"@hash@","experiments":[]}`,
	`{"version":2,"config_hash":"@hash@","experiments":[{"cursor":0},{"cursor":0}],"obs":{"hists":[{"name":"h","count":1,"buckets":[{"i":-1,"n":1}]}]}}`,
	`{"version":2,"config_hash":"@hash@","experiments":[{"cursor":0`,
}

// FuzzLoadCheckpoint feeds arbitrary bytes to LoadCheckpoint as the
// checkpoint file of a fixed two-experiment, three-snapshot workload.
// Every occurrence of "@hash@" in the input is replaced by that
// workload's config hash, so inputs reach the checks past the hash
// instead of stopping at a sha256 mismatch. A file it accepts must
// keep every experiment's cursor within the snapshots with one row and
// one eval per measured snapshot, and its saved report must merge into
// a collector without panicking (an error is fine).
func FuzzLoadCheckpoint(f *testing.F) {
	for _, s := range checkpointFuzzSeeds {
		f.Add([]byte(s))
	}
	m, err := mesh.ReadText(strings.NewReader("mesh 2\nnode 0 0\nnode 1 0\nnode 1 1\nelem tri3 0 1 2\n"))
	if err != nil {
		f.Fatal(err)
	}
	snaps := []sim.Snapshot{{Mesh: m}, {Index: 1, Mesh: m}, {Index: 2, Mesh: m}}
	cfgs := []Config{{K: 2, Seed: 1}, {K: 3, Seed: 1, Adaptive: true}}
	hash := []byte(configHash(snaps, cfgs))
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	write := func(data []byte) error {
		return os.WriteFile(path, bytes.ReplaceAll(data, []byte("@hash@"), hash), 0o644)
	}
	// The first seed is a complete, valid checkpoint of this workload,
	// so the corpus starts past every validation check.
	if err := write([]byte(checkpointFuzzSeeds[0])); err != nil {
		f.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, snaps, cfgs); err != nil {
		f.Fatalf("valid seed refused: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := write(data); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path, snaps, cfgs)
		if err != nil {
			return
		}
		for i := range cfgs {
			st := ck.state(i)
			if st.Cursor < 0 || st.Cursor > len(snaps) || len(st.Rows) != st.Cursor || len(st.Evals) != st.Cursor {
				t.Fatalf("experiment %d accepted with cursor %d, %d rows, %d evals", i, st.Cursor, len(st.Rows), len(st.Evals))
			}
		}
		if rep := ck.SavedObs(); rep != nil {
			_ = obs.New().Merge(*rep) // a malformed report may be refused, never panic
		}
	})
}
