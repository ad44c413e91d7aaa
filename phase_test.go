package repro_test

import (
	"bytes"
	"context"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sim"
)

// structuralSpans are the spans opened directly (StartSpan, Root,
// Child) rather than through Collector.Phase: they group phases but
// time nothing into the collector.
var structuralSpans = map[string]bool{
	"test": true, "experiment": true, "snapshot": true, "engine_iter": true,
	"rank": true, "ghost_exchange": true, "transport_exchange": true, "rb_task": true,
}

// depthBreakdown matches the partitioner's per-depth copies of its
// phase samples (rb_refine_d3), recorded with Observe, not Phase.
var depthBreakdown = regexp.MustCompile(`_d[0-9]+$`)

// TestPhaseHistogramsMatchSpans: with a collector and a tracer on, a
// quick checkpointed sweep (fixed and adaptive) plus one engine
// iteration record exactly the same phase names as histograms and as
// spans, because every timed region is one Collector.Phase call.
func TestPhaseHistogramsMatchSpans(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Snapshots, cfg.Steps = 3, 12
	snaps, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	col := obs.New()
	tr := obs.NewTracer()
	root := tr.Root("test")
	ctx := obs.ContextWithSpan(context.Background(), root)
	cfgs := []harness.Config{{K: 4, Seed: 1, Obs: col}, {K: 4, Seed: 1, Adaptive: true, Obs: col}}
	ck := harness.NewCheckpointer(filepath.Join(t.TempDir(), "sweep.ckpt"), snaps, cfgs)
	ck.Obs = col
	if _, err := harness.RunSweep(ctx, snaps, cfgs, harness.SweepOptions{Workers: 1, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}

	iter := root.Child("engine_iter")
	ictx := obs.ContextWithSpan(ctx, iter)
	m := snaps[0].Mesh
	d, _, err := core.DecomposeGraph(ictx, m, m.NodalGraph(mesh.DefaultNodalOptions()), nil, 0,
		core.Config{K: 4, Seed: 1, Obs: col}, core.FromScratch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(ictx, m, d, 0.5, engine.Options{Obs: col}); err != nil {
		t.Fatal(err)
	}
	iter.End()
	root.End()

	var hists []string
	for _, p := range col.Report().Phases {
		if !depthBreakdown.MatchString(p.Name) {
			hists = append(hists, p.Name)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var spans []string
	for name := range sum.Names {
		if !structuralSpans[name] {
			spans = append(spans, name)
		}
	}
	slices.Sort(spans)

	if !slices.Equal(hists, spans) {
		t.Fatalf("phase histograms %v != phase spans %v", hists, spans)
	}
	// The run must exercise every layer's phases, not just agree on
	// an empty set.
	for _, want := range []string{"partition", "rb_coarsen", "tree_induction", "drift_eval",
		"metric_eval", "checkpoint_write", "global_search", "local_search"} {
		if sum.Names[want] == 0 {
			t.Errorf("run recorded no %q phase", want)
		}
	}
}
