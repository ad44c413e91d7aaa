package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

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
