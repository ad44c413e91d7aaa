package harness

// Tests for the observability surface of the harness: the sweep span
// tree, the progress tracker, the per-snapshot series, and the
// cumulative obs report across checkpoint resume.

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestProgressTracker: monotonic cursors, consistent totals, and
// nil-safety (a nil *Progress must be usable everywhere).
func TestProgressTracker(t *testing.T) {
	var nilProg *Progress
	nilProg.set(0, 1) // must not panic
	if s := nilProg.Snapshot(); s.Total != 0 || s.Experiments != nil {
		t.Errorf("nil progress snapshot = %+v, want zero", s)
	}

	p := NewProgress(5, []Config{{K: 4}, {K: 8}})
	p.set(0, 2)
	p.set(1, 5)
	p.set(0, 1)  // stale update must not regress the cursor
	p.set(7, 3)  // out-of-range experiment must be ignored
	p.set(-1, 3) // negative experiment must be ignored
	s := p.Snapshot()
	if s.Snapshots != 5 || s.Total != 10 || s.Done != 7 {
		t.Errorf("snapshot = %+v, want snapshots=5 total=10 done=7", s)
	}
	if len(s.Experiments) != 2 || s.Experiments[0] != (ExperimentProgress{K: 4, Done: 2}) ||
		s.Experiments[1] != (ExperimentProgress{K: 8, Done: 5}) {
		t.Errorf("experiments = %+v", s.Experiments)
	}

	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"snapshots": 5`, `"done": 7`, `"total": 10`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("progress JSON missing %s:\n%s", want, buf.String())
		}
	}
}

// TestSweepTraceAndProgress: a traced RunSweep must produce a valid
// trace containing the harness span layers — one experiment span per
// config, one snapshot span and one metric_eval span per leg
// (leg=mc, leg=ml) per measured snapshot — and drive the progress
// tracker to completion.
func TestSweepTraceAndProgress(t *testing.T) {
	snaps := testSnaps(t, 3)
	cfgs := []Config{{K: 4, Seed: 1}, {K: 6, Seed: 1}}

	tr := obs.NewTracer()
	root := tr.Root("sweep")
	prog := NewProgress(len(snaps), cfgs)
	results, err := RunSweep(obs.ContextWithSpan(context.Background(), root), snaps, cfgs, SweepOptions{
		Workers:  2,
		Progress: prog,
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if len(results) != len(cfgs) {
		t.Fatalf("got %d results, want %d", len(results), len(cfgs))
	}

	s := prog.Snapshot()
	if s.Done != s.Total || s.Total != len(snaps)*len(cfgs) {
		t.Errorf("progress after sweep: done=%d total=%d, want both %d",
			s.Done, s.Total, len(snaps)*len(cfgs))
	}

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("sweep trace does not validate: %v", err)
	}
	nMeasured := len(snaps) * len(cfgs)
	for name, want := range map[string]int{
		"experiment":  len(cfgs),
		"snapshot":    nMeasured,
		"metric_eval": 2 * nMeasured,
	} {
		if sum.Names[name] != want {
			t.Errorf("span %q appears %d times, want %d", name, sum.Names[name], want)
		}
	}
	legs := map[string]int{}
	for _, e := range traceBegins(t, buf.Bytes()) {
		if e.Name == "metric_eval" {
			leg, _ := e.Args["leg"].(string)
			legs[leg]++
		}
	}
	if legs["mc"] != nMeasured || legs["ml"] != nMeasured || len(legs) != 2 {
		t.Errorf("metric_eval spans per leg = %v, want mc and ml %d each", legs, nMeasured)
	}
	// Each experiment runs on its own named track, plus the root's.
	if sum.Tracks < len(cfgs)+1 {
		t.Errorf("trace has %d lanes, want at least %d", sum.Tracks, len(cfgs)+1)
	}
}

// traceBegin is one span-begin event of a Chrome trace.
type traceBegin struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Args map[string]any `json:"args"`
}

// traceBegins returns the span-begin ("B") events of a WriteTrace
// output.
func traceBegins(t *testing.T, trace []byte) []traceBegin {
	t.Helper()
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &file); err != nil {
		t.Fatal(err)
	}
	var out []traceBegin
	for _, raw := range file.TraceEvents {
		var e traceBegin
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		if e.Ph == "B" {
			out = append(out, e)
		}
	}
	return out
}

// TestSeriesFromSweep: the per-snapshot series has one point per
// (experiment, snapshot) with every leg eval time populated, and both
// writers agree on the point count.
func TestSeriesFromSweep(t *testing.T) {
	snaps := testSnaps(t, 3)
	cfgs := []Config{{K: 4, Seed: 1}, {K: 6, Seed: 1}}
	results, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	pts := Series(results)
	if len(pts) != len(snaps)*len(cfgs) {
		t.Fatalf("series has %d points, want %d", len(pts), len(snaps)*len(cfgs))
	}
	for _, p := range pts {
		if p.MCEvalNS <= 0 || p.MLEvalNS <= 0 {
			t.Errorf("point k=%d t=%d has unpopulated eval times: mc=%d ml=%d",
				p.K, p.Snapshot, p.MCEvalNS, p.MLEvalNS)
		}
	}

	var csvBuf bytes.Buffer
	if err := WriteSeriesCSV(&csvBuf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 1+len(pts) {
		t.Errorf("CSV has %d lines, want header + %d points", len(lines), len(pts))
	}
	if !strings.HasPrefix(lines[0], "k,snapshot,mc_fecomm") {
		t.Errorf("CSV header = %q", lines[0])
	}

	var jsonBuf bytes.Buffer
	if err := WriteSeriesJSON(&jsonBuf, results); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(jsonBuf.String(), `"mc_eval_ns"`); n != len(pts) {
		t.Errorf("series JSON has %d points, want %d", n, len(pts))
	}
}

// TestResumeObsAndEvalsCumulative: a sweep killed mid-run and resumed
// must end with (a) an obs report covering the WHOLE sweep — the
// pre-kill report persisted in the checkpoint merged with the
// post-resume collector — that counts each snapshot's work once, as an
// uninterrupted run does, and (b) a complete series, with the killed
// run's leg times restored from the checkpoint. The replayed snapshots
// before the cursor, the snapshot-0 decomposition and any replayed
// repartitioning events included, record no phase sample and no
// counter.
func TestResumeObsAndEvalsCumulative(t *testing.T) {
	snaps := testSnaps(t, 4)
	const killAt = 2
	for _, tc := range []struct {
		name string
		cfg  Config
		// skew is how far each named count of the resumed sweep lies
		// from the uninterrupted one's; every other count must match.
		skew map[string]int64
	}{
		{"fixed", Config{K: 4, Seed: 1}, map[string]int64{
			// The killed run derived snapshot killAt's graph and boxes
			// beside snapshot killAt-1's legs; the resumed run builds
			// them again, the graph from scratch (no snapshot killAt-1
			// graph was replayed to derive it from).
			"metric_graph": 1, "surface_boxes": 1, "metric_graph_rebuilds": 1,
		}},
		{"adaptive", Config{K: 4, Seed: 1, Adaptive: true}, nil},
		{"repart_every_2", Config{K: 4, Seed: 1, RepartitionEvery: 2}, map[string]int64{
			// Snapshot killAt is an event, so no graph was prefetched,
			// but snapshot killAt-1 was replayed without one: the
			// resumed run builds snapshot killAt's from scratch.
			"metric_graph_rebuilds": 1,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfgs := []Config{tc.cfg}
			want := obs.New()
			cfgs[0].Obs = want
			ckFull := NewCheckpointer(filepath.Join(t.TempDir(), "full.ckpt"), snaps, cfgs)
			ckFull.Obs = want
			if _, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 1, Checkpoint: ckFull}); err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "sweep.ckpt")
			// Phase 1: record into one collector, kill after killAt
			// snapshots.
			ctx, cancel := context.WithCancel(context.Background())
			col1 := obs.New()
			cfgs[0].Obs = col1
			ck := NewCheckpointer(path, snaps, cfgs)
			ck.Obs = col1
			ck.AfterFlush = func(exp, cursor int) {
				if cursor == killAt {
					cancel()
				}
			}
			if _, err := RunSweep(ctx, snaps, cfgs, SweepOptions{Workers: 1, Checkpoint: ck}); err == nil {
				t.Fatal("interrupted sweep reported success")
			}
			cancel()

			// Phase 2: fresh process-equivalent — new collector, merge
			// the persisted report, finish the sweep.
			ck2, err := LoadCheckpoint(path, snaps, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			saved := ck2.SavedObs()
			if saved == nil {
				t.Fatal("checkpoint has no persisted obs report")
			}
			col2 := obs.New()
			if err := col2.Merge(*saved); err != nil {
				t.Fatal(err)
			}
			cfgs[0].Obs = col2
			ck2.Obs = col2
			results, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 1, Checkpoint: ck2})
			if err != nil {
				t.Fatal(err)
			}

			got := obsCounts(col2.Report())
			if got["metric_eval"] != int64(2*len(snaps)) || got["partition"] == 0 {
				t.Errorf("resumed sweep counts metric_eval=%d partition=%d", got["metric_eval"], got["partition"])
			}
			if tc.cfg.Adaptive && got["drift_eval"] == 0 {
				t.Error("adaptive sweep recorded no drift_eval")
			}
			for name, n := range obsCounts(want.Report()) {
				got[name] -= n
			}
			skew := map[string]int64{
				// The persisted report is captured just before each
				// flush, so the flush that the kill interrupted never
				// recorded its own checkpoint_write sample: exactly one
				// is lost.
				"checkpoint_write": -1, "checkpoint_writes": -1,
			}
			for name, d := range tc.skew {
				skew[name] = d
			}
			for name, d := range got {
				if d != skew[name] {
					t.Errorf("%s: resumed count - uninterrupted count = %d, want %d", name, d, skew[name])
				}
			}

			// The series is complete: the killed run's eval times for
			// snapshots [0, killAt) came back from the checkpoint.
			pts := Series(results)
			if len(pts) != len(snaps) {
				t.Fatalf("resumed series has %d points, want %d", len(pts), len(snaps))
			}
			for _, p := range pts {
				if p.MCEvalNS <= 0 || p.MLEvalNS <= 0 {
					t.Errorf("resumed series point t=%d missing eval times: mc=%d ml=%d",
						p.Snapshot, p.MCEvalNS, p.MLEvalNS)
				}
			}
		})
	}
}

// obsCounts maps every phase of rep to its sample count and every
// counter to its value.
func obsCounts(rep obs.Report) map[string]int64 {
	out := map[string]int64{}
	for _, ph := range rep.Phases {
		out[ph.Name] = ph.Count
	}
	for _, c := range rep.Counters {
		out[c.Name] = c.Value
	}
	return out
}
