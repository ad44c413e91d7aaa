package harness

// Checkpoint/restart for the evaluation sweep. A multi-hour RunSweep
// must survive being killed: after every completed snapshot each
// experiment's rows-so-far, metric accumulators, and snapshot cursor
// are written to a versioned JSON checkpoint (atomically: temp file +
// rename), and a resumed run fast-forwards the deterministic
// partition/RCB state through the already-measured snapshots without
// re-paying the metric evaluation, producing byte-identical Rows and
// Avg to an uninterrupted run.
//
// The checkpoint is bound to its workload by a config hash (every
// result-affecting Config field plus the snapshot sequence shape);
// resuming against a different workload is refused rather than
// silently producing mixed results.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// CheckpointVersion is the format version written to and required
// from checkpoint files. Policy: the version bumps whenever the
// schema or the meaning of any field changes; older files are
// rejected with ErrCheckpointMismatch (a sweep is cheap to restart
// relative to the cost of silently mixing formats).
//
// Version history: 1 — cursor/rows/imbalance per experiment;
// 2 — adds per-snapshot leg eval times (experiments[].evals) and the
// cumulative observability report (obs).
const CheckpointVersion = 2

// ErrCheckpointMismatch reports a checkpoint that cannot resume the
// requested workload: wrong format version or wrong config hash.
var ErrCheckpointMismatch = errors.New("harness: checkpoint does not match this run")

// experimentState is one experiment's progress: Cursor snapshots are
// fully measured, with their rows and the running imbalance
// accumulators captured. (The partition/RCB state is NOT stored: it
// is deterministic from the config seed, so resume recomputes it by
// fast-forwarding, which keeps the checkpoint small and the format
// stable.)
type experimentState struct {
	Cursor     int         `json:"cursor"`
	Rows       []Row       `json:"rows"`
	Evals      []EvalTimes `json:"evals"`
	ImbFE      float64     `json:"imb_fe"`
	ImbContact float64     `json:"imb_contact"`
}

// checkpointFile is the on-disk schema. Obs is the cumulative
// observability report as of the last flush: a resumed run merges it
// into its live collector (Collector.Merge), so the final report
// covers the whole sweep, not just the post-resume part. One caveat:
// the report is captured just before each flush, so it cannot contain
// that flush's own checkpoint_write sample — a killed run loses
// exactly the in-flight write's record, nothing else.
type checkpointFile struct {
	Version     int               `json:"version"`
	ConfigHash  string            `json:"config_hash"`
	Experiments []experimentState `json:"experiments"`
	Obs         *obs.Report       `json:"obs,omitempty"`
}

// Checkpointer persists sweep progress. It is shared by the
// concurrently running experiments of a RunSweep; every update rewrites
// the file atomically. An update changes and marshals the state under
// one mutex and writes the file under another, so experiments record
// and read progress while a write is in flight.
type Checkpointer struct {
	// Obs, when non-nil, records the "checkpoint_write" phase timer
	// and the "checkpoint_writes" counter.
	Obs *obs.Collector
	// AfterFlush, when non-nil, is called after each atomic write
	// with the experiment index and its new cursor. Tests use it to
	// kill a run at an exact snapshot; tooling can use it for
	// progress reporting.
	AfterFlush func(exp, cursor int)

	path string

	mu   sync.Mutex // guards file and gen
	file checkpointFile
	gen  uint64 // generation of the latest marshalled file

	wmu     sync.Mutex // serializes the file writes
	durable uint64     // generation of the file on disk, under wmu
}

// configHash binds a checkpoint to its workload: every Config field
// that affects Rows, plus the shape of the snapshot sequence.
func configHash(snaps []sim.Snapshot, cfgs []Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d snaps=%d", CheckpointVersion, len(snaps))
	if len(snaps) > 0 {
		fmt.Fprintf(h, " n0=%d e0=%d", snaps[0].Mesh.NumNodes(), snaps[0].Mesh.NumElems())
	}
	for _, c := range cfgs {
		c = c.withDefaults()
		// geo preserves the historical hash field from when the backend
		// selector was a single Geometric bool: "" / "multilevel" hash as
		// geo=false and "rcb" as geo=true, so every checkpoint written
		// before the selector existed still matches its workload.
		geo := c.Backend == "rcb"
		fmt.Fprintf(h, "|k=%d seed=%d imb=%g tol=%g cw=%d mp=%d mi=%d sr=%t lf=%t geo=%t wg=%t re=%d inc=%t",
			c.K, c.Seed, c.Imbalance, searchTol, c.ContactEdgeWeight,
			c.MaxPure, c.MaxImpure, c.SkipReshape, c.LooseTreeFilter,
			geo, c.WideGaps, c.RepartitionEvery, c.Incremental)
		if !geo && c.Backend != "" && c.Backend != "multilevel" {
			// New backends append their name; configs expressible before
			// the selector keep byte-identical hash input.
			fmt.Fprintf(h, " be=%s", c.Backend)
		}
		d := c.Drift.WithDefaults(c.Imbalance)
		switch {
		case c.Adaptive:
			// Appended only for adaptive configs so every pre-existing
			// checkpoint (necessarily non-adaptive) keeps its hash.
			fmt.Fprintf(h, " ad=%t dc=%g dfc=%g dfi=%g",
				c.Adaptive, d.CutDrift, d.FullCutDrift, d.FullImbalance)
		case c.Incremental && c.RepartitionEvery > 0:
			// The incremental cadence escalates past FullImbalance, so
			// the bound is part of its workload; its checkpoints from
			// before it escalated no longer match.
			fmt.Fprintf(h, " dfi=%g", d.FullImbalance)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// NewCheckpointer starts a fresh checkpoint for the workload at path.
// Nothing is written until the first snapshot completes.
func NewCheckpointer(path string, snaps []sim.Snapshot, cfgs []Config) *Checkpointer {
	return &Checkpointer{
		path: path,
		file: checkpointFile{
			Version:     CheckpointVersion,
			ConfigHash:  configHash(snaps, cfgs),
			Experiments: make([]experimentState, len(cfgs)),
		},
	}
}

// LoadCheckpoint opens an existing checkpoint and validates it
// against the workload. A version or config-hash mismatch returns
// ErrCheckpointMismatch (wrapped with detail).
func LoadCheckpoint(path string, snaps []sim.Snapshot, cfgs []Config) (*Checkpointer, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: read checkpoint: %w", err)
	}
	var file checkpointFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("harness: parse checkpoint %s: %w", path, err)
	}
	if file.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: file version %d, supported %d",
			ErrCheckpointMismatch, file.Version, CheckpointVersion)
	}
	if want := configHash(snaps, cfgs); file.ConfigHash != want {
		return nil, fmt.Errorf("%w: config hash %.12s…, want %.12s…",
			ErrCheckpointMismatch, file.ConfigHash, want)
	}
	if len(file.Experiments) != len(cfgs) {
		return nil, fmt.Errorf("%w: %d experiments, want %d",
			ErrCheckpointMismatch, len(file.Experiments), len(cfgs))
	}
	for i, st := range file.Experiments {
		if st.Cursor < 0 || st.Cursor > len(snaps) || len(st.Rows) != st.Cursor || len(st.Evals) != st.Cursor {
			return nil, fmt.Errorf("%w: experiment %d has cursor %d with %d rows, %d evals over %d snapshots",
				ErrCheckpointMismatch, i, st.Cursor, len(st.Rows), len(st.Evals), len(snaps))
		}
	}
	return &Checkpointer{path: path, file: file}, nil
}

// state returns a copy of one experiment's saved progress.
func (c *Checkpointer) state(exp int) experimentState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.file.Experiments[exp]
	st.Rows = append([]Row(nil), st.Rows...)
	st.Evals = append([]EvalTimes(nil), st.Evals...)
	return st
}

// SavedObs returns the observability report persisted by the run that
// wrote the checkpoint (nil when absent). Merge it into the live
// collector before resuming so the final report is cumulative over
// the whole sweep.
func (c *Checkpointer) SavedObs() *obs.Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.file.Obs
}

// record appends one completed snapshot to an experiment and flushes
// the whole checkpoint atomically, together with the collector's
// current cumulative report (when Obs is set). span is the parent of
// the "checkpoint_write" phase's span. When record returns nil, the
// file on disk holds this snapshot: written by this call, or by a
// concurrent one whose later state includes it.
func (c *Checkpointer) record(span *obs.Span, exp, cursor int, row Row, ev EvalTimes, imbFE, imbContact float64) error {
	ph := c.Obs.Phase(span, "checkpoint_write")
	var rep *obs.Report
	if c.Obs != nil {
		r := c.Obs.Report()
		rep = &r
	}
	c.mu.Lock()
	st := &c.file.Experiments[exp]
	st.Rows = append(st.Rows, row)
	st.Evals = append(st.Evals, ev)
	st.Cursor = cursor
	st.ImbFE = imbFE
	st.ImbContact = imbContact
	if rep != nil {
		c.file.Obs = rep
	}
	data, err := json.MarshalIndent(&c.file, "", " ")
	c.gen++
	gen := c.gen
	c.mu.Unlock()
	if err == nil {
		err = c.flush(gen, data)
	}
	ph.End()
	c.Obs.Add("checkpoint_writes", 1)
	if err == nil && c.AfterFlush != nil {
		c.AfterFlush(exp, cursor)
	}
	return err
}

// flush makes data, the file of generation gen, durable unless a later
// generation already is. Writes are serialized, so the file on disk
// only moves forward.
func (c *Checkpointer) flush(gen uint64, data []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.durable >= gen {
		return nil
	}
	if err := c.write(data); err != nil {
		return err
	}
	c.durable = gen
	return nil
}

// write writes the checkpoint atomically and durably: write to a temp
// file in the same directory, fsync, rename over the target, then
// fsync the parent directory. A crash mid-write leaves either the old
// complete file or the new complete file, never a torn one — and the
// directory fsync makes the rename itself survive a power cut, not
// just a process kill (without it the directory entry may still point
// at the old file, or at nothing, after the machine comes back).
func (c *Checkpointer) write(data []byte) error {
	tmp := c.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		_ = f.Close() // already failing; the write error is the one to report
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // already failing; the sync error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(c.path))
}

// syncDir fsyncs a directory so a just-renamed entry in it is durable.
// Platforms whose directory handles reject Sync (it is not required to
// work everywhere) report that error; callers treat checkpoint
// durability as part of the write contract.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // already failing; the sync error is the one to report
		return err
	}
	return d.Close()
}

// Done reports the per-experiment snapshot cursors (how much of the
// sweep is already measured).
func (c *Checkpointer) Done() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.file.Experiments))
	for i, st := range c.file.Experiments {
		out[i] = st.Cursor
	}
	return out
}

// WriteSummary prints a one-line resume summary per experiment.
func (c *Checkpointer) WriteSummary(w io.Writer, cfgs []Config) {
	for i, done := range c.Done() {
		k := 0
		if i < len(cfgs) {
			k = cfgs[i].K
		}
		fmt.Fprintf(w, "  experiment %d (k=%d): %d snapshots checkpointed\n", i, k, done)
	}
}
