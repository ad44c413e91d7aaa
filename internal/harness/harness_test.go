package harness

import (
	"bytes"
	"context"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func testSnaps(t *testing.T, n int) []sim.Snapshot {
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

// runOne runs a single experiment through RunSweep.
func runOne(snaps []sim.Snapshot, cfg Config) (*Result, error) {
	res, err := RunSweep(context.Background(), snaps, []Config{cfg}, SweepOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

func TestRunProducesAllMetrics(t *testing.T) {
	snaps := testSnaps(t, 4)
	r, err := runOne(snaps, Config{K: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	a := r.Avg
	if a.MCFEComm <= 0 || a.MLFEComm <= 0 {
		t.Error("FEComm missing")
	}
	if a.MCNTNodes <= 0 {
		t.Error("NTNodes missing")
	}
	if a.MCNRemote < 0 || a.MLNRemote < 0 {
		t.Error("NRemote negative")
	}
	if a.MLM2MComm <= 0 {
		t.Error("M2MComm should be positive for decoupled decompositions")
	}
	if a.MLUpdComm < 0 {
		t.Error("UpdComm negative")
	}
	if a.MCImbalanceFE < 1 || a.MCImbalanceContact < 1 {
		t.Errorf("imbalances: %v %v", a.MCImbalanceFE, a.MCImbalanceContact)
	}
}

func TestRunEmptyInput(t *testing.T) {
	if _, err := runOne(nil, Config{K: 4}); err == nil {
		t.Error("accepted empty snapshot list")
	}
}

func TestRunDeterministic(t *testing.T) {
	snaps := testSnaps(t, 3)
	a, err := runOne(snaps, Config{K: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOne(snaps, Config{K: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d differs between identical runs", i)
		}
	}
}

func TestUpdCommZeroAtFirstSnapshot(t *testing.T) {
	snaps := testSnaps(t, 3)
	r, err := runOne(snaps, Config{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0].MLUpdComm != 0 {
		t.Errorf("snapshot 0 UpdComm = %d", r.Rows[0].MLUpdComm)
	}
}

func TestAblationFlagsChangeResults(t *testing.T) {
	snaps := testSnaps(t, 2)
	base, err := runOne(snaps, Config{K: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := runOne(snaps, Config{K: 6, Seed: 5, LooseTreeFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Avg.MCNRemote < base.Avg.MCNRemote {
		t.Errorf("loose filter NRemote %.0f < tight %.0f", loose.Avg.MCNRemote, base.Avg.MCNRemote)
	}
	w1, err := runOne(snaps, Config{K: 6, Seed: 5, ContactEdgeWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = w1 // just verifying the configuration path runs
}

func TestWriteTableFormat(t *testing.T) {
	snaps := testSnaps(t, 2)
	r, err := runOne(snaps, Config{K: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteTable(&buf, []*Result{r})
	out := buf.String()
	for _, want := range []string{"MCML+DT", "ML+RCB", "FEComm", "NTNodes", "M2MComm", "UpdComm", "4-way"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	WriteDerived(&buf2, []*Result{r})
	if !strings.Contains(buf2.String(), "pre-search communication") {
		t.Errorf("derived output: %s", buf2.String())
	}
}

func TestWriteCSV(t *testing.T) {
	snaps := testSnaps(t, 2)
	r, err := runOne(snaps, Config{K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Result{r}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+2 { // header + 2 snapshots
		t.Fatalf("%d CSV lines, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "k,snapshot,mc_fecomm") {
		t.Errorf("header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "4,0,") {
		t.Errorf("row: %s", lines[1])
	}
}

func TestGeometricPipelinePath(t *testing.T) {
	snaps := testSnaps(t, 2)
	for _, be := range []string{"rcb", "sfc", "bkmeans"} {
		r, err := runOne(snaps, Config{K: 4, Seed: 9, Backend: be})
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if r.Avg.MCNTNodes <= 0 {
			t.Errorf("%s run produced no tree", be)
		}
	}
}

// TestSerialLegsMatchConcurrentLegs: the per-snapshot MCML+DT and
// ML+RCB measurement legs, and the two decompositions at snapshot 0
// and on full repartitions, run concurrently by default; under every
// update strategy the rows, averages and repartition series must be
// identical to the strictly serial evaluation.
func TestSerialLegsMatchConcurrentLegs(t *testing.T) {
	snaps := testSnaps(t, 4)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fixed", Config{}},
		{"adaptive", Config{Adaptive: true}},
		{"every2", Config{RepartitionEvery: 2}},
		{"every2_incremental", Config{RepartitionEvery: 2, Incremental: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.K, cfg.Seed = 6, 2
			conc, err := runOne(snaps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.SerialLegs = true
			ser, err := runOne(snaps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(conc.Rows, ser.Rows) {
				t.Fatalf("rows differ:\nconcurrent %+v\nserial     %+v", conc.Rows, ser.Rows)
			}
			if conc.Avg != ser.Avg {
				t.Errorf("averages differ:\nconcurrent %+v\nserial     %+v", conc.Avg, ser.Avg)
			}
			cs, ss := Series([]*Result{conc}), Series([]*Result{ser})
			for i := range cs {
				if cs[i].MCRepart != ss[i].MCRepart || cs[i].MCMigrated != ss[i].MCMigrated {
					t.Errorf("snapshot %d: concurrent repartition %q/%d != serial %q/%d",
						i, cs[i].MCRepart, cs[i].MCMigrated, ss[i].MCRepart, ss[i].MCMigrated)
				}
			}
		})
	}
}

// TestRunAllMatchesSerialSweep: the concurrent k-sweep must produce
// Result.Rows identical to running each config alone, one at a time.
func TestRunAllMatchesSerialSweep(t *testing.T) {
	snaps := testSnaps(t, 3)
	ks := []int{4, 8, 16}
	cfgs := make([]Config, len(ks))
	for i, k := range ks {
		cfgs[i] = Config{K: k, Seed: 3}
	}

	var serial []*Result
	for _, c := range cfgs {
		r, err := runOne(snaps, c)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, r)
	}
	concurrent, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(concurrent) != len(serial) {
		t.Fatalf("%d results, want %d", len(concurrent), len(serial))
	}
	for i := range serial {
		if concurrent[i].K != serial[i].K {
			t.Fatalf("result %d out of order: k=%d want %d", i, concurrent[i].K, serial[i].K)
		}
		for j := range serial[i].Rows {
			if concurrent[i].Rows[j] != serial[i].Rows[j] {
				t.Errorf("k=%d row %d: %+v != %+v", serial[i].K, j,
					concurrent[i].Rows[j], serial[i].Rows[j])
			}
		}
		if concurrent[i].Avg != serial[i].Avg {
			t.Errorf("k=%d averages differ", serial[i].K)
		}
	}
}

// TestRunAllSpeedup measures the wall-clock win of the concurrent
// sweep; the acceptance bar is >1.5x on >= 4 cores. Timing is retried
// once to ride out scheduler noise on loaded hosts.
func TestRunAllSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("%d cores; speedup bar needs >= 4", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	snaps := testSnaps(t, 6)
	ks := []int{4, 8, 16}
	cfgs := make([]Config, len(ks))
	for i, k := range ks {
		// SerialLegs isolates the sweep-level speedup being measured.
		cfgs[i] = Config{K: k, Seed: 4, SerialLegs: true}
	}

	measure := func() (float64, error) {
		t0 := time.Now()
		for _, c := range cfgs {
			if _, err := runOne(snaps, c); err != nil {
				return 0, err
			}
		}
		serialDur := time.Since(t0)
		t1 := time.Now()
		if _, err := RunSweep(context.Background(), snaps, cfgs, SweepOptions{Workers: 0}); err != nil {
			return 0, err
		}
		concDur := time.Since(t1)
		t.Logf("serial %v, concurrent %v, speedup %.2fx",
			serialDur, concDur, float64(serialDur)/float64(concDur))
		return float64(serialDur) / float64(concDur), nil
	}

	best := 0.0
	for attempt := 0; attempt < 2; attempt++ {
		s, err := measure()
		if err != nil {
			t.Fatal(err)
		}
		if s > best {
			best = s
		}
		if best > 1.5 {
			return
		}
	}
	t.Errorf("concurrent sweep speedup %.2fx, want > 1.5x", best)
}

func TestRunRecordsObsPhases(t *testing.T) {
	snaps := testSnaps(t, 2)
	col := obs.New()
	if _, err := runOne(snaps, Config{K: 4, Seed: 5, Obs: col}); err != nil {
		t.Fatal(err)
	}
	r := col.Report()
	got := map[string]obs.PhaseStat{}
	for _, p := range r.Phases {
		got[p.Name] = p
	}
	for _, name := range []string{"partition", "tree_induction", "metric_eval"} {
		if got[name].Count == 0 {
			t.Errorf("phase %q not recorded (report: %+v)", name, r.Phases)
		}
	}
	// metric_eval runs once per leg per snapshot.
	if got["metric_eval"].Count != int64(2*len(snaps)) {
		t.Errorf("metric_eval count %d, want %d", got["metric_eval"].Count, 2*len(snaps))
	}
}

// metricGraphStats returns a report's count of metric_graph phases and
// its metric_graph_rebuilds counter.
func metricGraphStats(rep obs.Report) (phases, rebuilds int64) {
	for _, p := range rep.Phases {
		if p.Name == "metric_graph" {
			phases = p.Count
		}
	}
	for _, c := range rep.Counters {
		if c.Name == "metric_graph_rebuilds" {
			rebuilds = c.Value
		}
	}
	return phases, rebuilds
}

// TestMetricGraphDerived: an uninterrupted sweep builds snapshot 0's
// graph from scratch and derives every later snapshot's from its
// predecessor's, rebuilding none, under every update strategy and with
// serial legs. A fixed-partition sweep resumed at cursor c >= 2 has no
// graph of snapshot c-1, so it rebuilds exactly one; resumed at cursor
// 1 it derives from snapshot 0's graph.
func TestMetricGraphDerived(t *testing.T) {
	snaps := testSnaps(t, 4)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fixed", Config{}},
		{"fixed_serial", Config{SerialLegs: true}},
		{"every2", Config{RepartitionEvery: 2}},
		{"every2_incremental", Config{RepartitionEvery: 2, Incremental: true}},
		{"adaptive", Config{Adaptive: true, Drift: tightDrift()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.K, cfg.Seed, cfg.Obs = 4, 1, obs.New()
			if _, err := runOne(snaps, cfg); err != nil {
				t.Fatal(err)
			}
			phases, rebuilds := metricGraphStats(cfg.Obs.Report())
			if want := int64(len(snaps) - 1); rebuilds != 0 || phases != want {
				t.Errorf("metric_graph %d times with %d rebuilds, want %d and 0", phases, rebuilds, want)
			}
		})
	}

	cfgs := []Config{{K: 4, Seed: 1}}
	for killAt := 1; killAt < len(snaps); killAt++ {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		ck := NewCheckpointer(path, snaps, cfgs)
		ck.AfterFlush = func(_, cursor int) {
			if cursor == killAt {
				cancel()
			}
		}
		if _, err := RunSweep(ctx, snaps, cfgs, SweepOptions{Workers: 1, Checkpoint: ck}); err == nil {
			t.Fatalf("killAt=%d: interrupted sweep reported success", killAt)
		}
		cancel()
		ck2, err := LoadCheckpoint(path, snaps, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		resumed := cfgs[0]
		resumed.Obs = obs.New()
		if _, err := RunSweep(context.Background(), snaps, []Config{resumed}, SweepOptions{Workers: 1, Checkpoint: ck2}); err != nil {
			t.Fatal(err)
		}
		want := int64(1)
		if killAt == 1 {
			want = 0
		}
		if _, rebuilds := metricGraphStats(resumed.Obs.Report()); rebuilds != want {
			t.Errorf("resumed at %d: %d rebuilds, want %d", killAt, rebuilds, want)
		}
	}
}

// TestTable1QualitativeShape pins the relations the paper's Table 1
// demonstrates, on the fast profile: the multi-constraint partition
// pays more FEComm than the single-constraint baseline; the decoupled
// baseline pays a large M2MComm (a sizable fraction of the contact
// nodes) and a small UpdComm; and the total pre-search communication
// favors MCML+DT.
func TestTable1QualitativeShape(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Steps = 60
	cfg.Snapshots = 6
	snaps, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runOne(snaps, Config{K: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := r.Avg
	if a.MCFEComm <= a.MLFEComm {
		t.Errorf("MC FEComm %.0f should exceed ML %.0f (two constraints cost)", a.MCFEComm, a.MLFEComm)
	}
	contacts := float64(len(snaps[0].Mesh.ContactNodes()))
	if a.MLM2MComm < contacts/4 {
		t.Errorf("M2MComm %.0f suspiciously small for %d contacts", a.MLM2MComm, int(contacts))
	}
	if a.MLUpdComm >= a.MLM2MComm {
		t.Errorf("UpdComm %.0f should be far below M2MComm %.0f", a.MLUpdComm, a.MLM2MComm)
	}
	mlTotal := a.MLFEComm + 2*a.MLM2MComm + a.MLUpdComm
	if mlTotal <= a.MCFEComm {
		t.Errorf("headline inverted: ML total %.0f <= MC FEComm %.0f", mlTotal, a.MCFEComm)
	}
}

// TestLabelsCarriedAcrossErosion verifies the persistent-id label
// carry: on later snapshots every node must still have a label in
// range even after erosion removed and renumbered nodes.
func TestLabelsCarriedAcrossErosion(t *testing.T) {
	snaps := testSnaps(t, 5)
	// The mesh must actually have shrunk for this test to bite.
	if snaps[len(snaps)-1].Mesh.NumNodes() >= snaps[0].Mesh.NumNodes() {
		t.Skip("no erosion in this configuration")
	}
	r, err := runOne(snaps, Config{K: 5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Metrics on the last row must still be sane.
	last := r.Rows[len(r.Rows)-1]
	if last.MCFEComm <= 0 || last.MCNTNodes <= 0 {
		t.Errorf("last-row metrics degenerate: %+v", last)
	}
}
