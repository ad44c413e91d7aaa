package main

// The sweep workloads: the paper's per-snapshot decomposition over a
// penetration sequence, run through harness.RunSweep.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

type sweepWorkload struct {
	scene    sceneSpec
	ks       []int
	adaptive bool
	// minReps is the fewest sweeps one run measures, so the latency
	// tail percentile has at least ten samples beyond it.
	minReps int
	tailPct float64
	// seeds is how many partitioner seeds (derived from the run's seed)
	// a run cycles through; the quality metrics average over them. The
	// adaptive policy's rung mix, and so its migration and cost, swings
	// with the seed, so one seed per run would make runs disagree.
	seeds int
	// spans are the span names the traced run must contain.
	spans []string
}

// evals is the number of snapshot evaluations in one sweep.
func (w sweepWorkload) evals() int64 { return int64(w.scene.Count * len(w.ks)) }

func (w sweepWorkload) run(o runOpts) (*outcome, error) {
	if o.trace {
		return w.runTraced(o)
	}
	res := newOutcome()
	var setups []float64
	var sc *scene
	for i := 0; i < setupReps; i++ {
		sc = nil // let the previous copy go before building the next
		t0 := time.Now()
		s, err := buildScene(w.scene)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sc = s
	}
	// Sweep rep uses partitioner seed rep mod seeds; a later sweep on a
	// seed must repeat the first one's Table 1 exactly.
	refs := make([]*sweepOut, w.seeds)
	var rates, lat []float64
	a0 := heapAllocBytes()
	start := time.Now()
	for rep := 0; rep < w.minReps || time.Since(start) < o.duration; rep++ {
		sp := sweepSpec{Ks: w.ks, Seed: derivedSeed(o.seed, rep%w.seeds), Adaptive: w.adaptive}
		t0 := time.Now()
		out, err := runSweep(context.Background(), sc, sp)
		wall := time.Since(t0)
		res.attempted += w.evals()
		if err != nil {
			res.fail(w.evals(), fmt.Sprintf("sweep %d: %v", rep, err))
			continue
		}
		if ref := refs[rep%w.seeds]; ref == nil {
			if msg := checkSweep(out, w); msg != "" {
				res.wrong(w.evals(), msg)
				continue
			}
			refs[rep%w.seeds] = &out
		} else if msg := sameTables(ref.Tables, out.Tables); msg != "" {
			res.wrong(w.evals(), fmt.Sprintf("sweep %d differs from the first sweep with seed %d: %s", rep, sp.Seed, msg))
			continue
		}
		rates = append(rates, float64(w.evals())/wall.Seconds())
		for _, ns := range out.SnapNS {
			lat = append(lat, float64(ns)/1e6)
		}
	}
	total := time.Since(start)
	allocs := heapAllocBytes() - a0
	for _, ref := range refs {
		if ref == nil {
			return res, nil
		}
	}

	res.set("setup_s", median(setups))
	res.set("snapshots_per_s", median(rates))
	res.set("alloc_mb_per_op", float64(allocs)/1e6/float64(res.attempted))
	res.set("job_p50_ms", median(lat))
	res.set("job_tail_ms", quantile(lat, w.tailPct))
	res.set("jobs_per_s", float64(len(rates))/total.Seconds())
	w.setQuality(res, refs)
	res.info["tail_percentile"] = w.tailPct * 100
	res.info["latency_samples"] = len(lat)
	res.info["sweeps"] = len(rates)
	res.info["snapshots"] = w.scene.Count
	res.info["ks"] = w.ks
	return res, nil
}

// derivedSeed is the i-th partitioner seed of a run with seed s.
func derivedSeed(s int64, i int) int64 { return s + int64(i)*1_000_003 }

// setQuality records the Table-1 quality averages over the ks and
// seeds, and the migration: MCML+DT migrated nodes per update for the
// adaptive policy, the ML+RCB contact-label migration (UpdComm) for
// the fixed partition, which never migrates MCML+DT nodes.
func (w sweepWorkload) setQuality(res *outcome, outs []*sweepOut) {
	avg := func(i int) float64 {
		var s, n float64
		for _, out := range outs {
			for _, t := range out.Tables {
				s += t.Avg[i]
				n++
			}
		}
		return s / n
	}
	res.set("mc_fecomm", avg(avgMCFEComm))
	res.set("mc_nremote", avg(avgMCNRemote))
	res.set("mc_ntnodes", avg(avgMCNTNodes))
	res.set("mc_imbalance_contact", avg(avgImbContact))
	if !w.adaptive {
		res.set("migrated_nodes", avg(avgMLUpdComm))
		return
	}
	var s, n float64
	for _, out := range outs {
		for _, m := range out.Migrated {
			s += float64(m)
			n++
		}
	}
	res.set("migrated_nodes", s/n)
}

// checkSweep validates one sweep's output on its own: shapes, the
// averages against the rows, and the ranges every metric must lie in.
func checkSweep(out sweepOut, w sweepWorkload) string {
	if len(out.Tables) != len(w.ks) {
		return fmt.Sprintf("%d results for %d ks", len(out.Tables), len(w.ks))
	}
	for i, t := range out.Tables {
		if t.K != w.ks[i] || len(t.Rows) != w.scene.Count {
			return fmt.Sprintf("result %d: k=%d with %d rows, want k=%d with %d", i, t.K, len(t.Rows), w.ks[i], w.scene.Count)
		}
		var sum [7]int64
		for s, r := range t.Rows {
			for j, v := range r {
				if v < 0 {
					return fmt.Sprintf("k=%d snapshot %d: negative metric %d", t.K, s, j)
				}
				sum[j] += v
			}
			if r[avgMCNTNodes] < int64(t.K) || r[avgMCFEComm] == 0 || r[avgMLFEComm] == 0 {
				return fmt.Sprintf("k=%d snapshot %d: implausible row %v", t.K, s, r)
			}
		}
		n := float64(len(t.Rows))
		for _, j := range []int{avgMCFEComm, avgMCNTNodes, avgMCNRemote, avgMLFEComm, avgMLM2MComm, avgMLNRemote} {
			if t.Avg[j] != float64(sum[j])/n {
				return fmt.Sprintf("k=%d: average %d is %v, rows give %v", t.K, j, t.Avg[j], float64(sum[j])/n)
			}
		}
		// The fixed partition's contact balance decays as the contact
		// set changes, so only the range an imbalance can take is checked.
		for _, j := range []int{avgImbFE, avgImbContact} {
			if v := t.Avg[j]; math.IsNaN(v) || v < 1 || v > float64(t.K) {
				return fmt.Sprintf("k=%d: imbalance %d is %v", t.K, j, v)
			}
		}
	}
	if got, want := len(out.SnapNS), int(w.evals()); got != want {
		return fmt.Sprintf("%d per-snapshot times for %d evaluations", got, want)
	}
	return ""
}

// sameTables reports how two sweeps' Table-1 outputs differ ("" when
// identical).
func sameTables(a, b []table1) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d results", len(a), len(b))
	}
	for i := range a {
		if a[i].K != b[i].K || len(a[i].Rows) != len(b[i].Rows) {
			return fmt.Sprintf("result %d shape", i)
		}
		for t := range a[i].Rows {
			if a[i].Rows[t] != b[i].Rows[t] {
				return fmt.Sprintf("k=%d snapshot %d: %v vs %v", a[i].K, t, a[i].Rows[t], b[i].Rows[t])
			}
		}
		if a[i].Avg != b[i].Avg {
			return fmt.Sprintf("k=%d averages: %v vs %v", a[i].K, a[i].Avg, b[i].Avg)
		}
	}
	return ""
}

// runTraced runs the sweep once untraced through harness.RunSweep and
// once through the traced replica, checks that both give the same
// Table 1, and reports the per-layer metrics.
func (w sweepWorkload) runTraced(o runOpts) (*outcome, error) {
	res := newOutcome()
	sc, err := buildScene(w.scene)
	if err != nil {
		return nil, err
	}
	sp := sweepSpec{Ks: w.ks, Seed: o.seed, Adaptive: w.adaptive}

	t0 := time.Now()
	plain, err := runSweep(context.Background(), sc, sp)
	untraced := time.Since(t0)
	res.attempted += w.evals()
	if err != nil {
		res.fail(w.evals(), fmt.Sprintf("untraced sweep: %v", err))
		return res, nil
	}
	if msg := checkSweep(plain, w); msg != "" {
		res.wrong(w.evals(), msg)
	}

	tr := newTracer()
	t0 = time.Now()
	traced, err := tracedSweep(sc, sp, tr)
	tracedWall := time.Since(t0)
	res.attempted += w.evals()
	if err != nil {
		res.fail(w.evals(), fmt.Sprintf("traced sweep: %v", err))
		return res, nil
	}
	if msg := sameTables(plain.Tables, traced.Tables); msg != "" {
		res.wrong(w.evals(), "traced Table 1 differs from RunSweep's: "+msg)
	}
	if w.adaptive && !sameInts(plain.Migrated, traced.Migrated) {
		res.wrong(w.evals(), "traced migration differs from RunSweep's")
	}

	stats, wall := tr.aggregate()
	res.setLayers(stats, wall)
	var layerSelf int64
	for name, st := range stats {
		if !isStructural(name) {
			layerSelf += st.SelfNS
		}
	}
	res.set("harness.residual_ms", float64(int64(untraced)-layerSelf)/1e6)
	res.set("trace.overhead_ratio", tracedWall.Seconds()/untraced.Seconds())
	res.set("core.rung_keep", float64(traced.Rungs["keep"]))
	res.set("core.rung_diffuse", float64(traced.Rungs["diffuse"]))
	res.set("core.rung_full", float64(traced.Rungs["full"]))
	res.set("core.escalations", float64(traced.Escalations))
	res.set("dtree.ntnodes", float64(traced.NTNodes)/float64(w.evals()))
	res.info["untraced_wall_s"] = untraced.Seconds()
	res.info["traced_wall_s"] = tracedWall.Seconds()

	if err := res.writeTrace(tr, o, w.spans); err != nil {
		return nil, err
	}
	return res, nil
}

func sameInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// writeTrace writes the Chrome trace and validates it the way
// tools/tracecheck does, requiring every span the workload must have.
func (res *outcome) writeTrace(tr *tracer, o runOpts, required []string) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f, "perfbench "+o.workload); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	missing, err := validateTrace(path, required)
	switch {
	case err != nil:
		res.wrong(0, fmt.Sprintf("trace %s invalid: %v", path, err))
	case len(missing) > 0:
		res.wrong(0, fmt.Sprintf("trace %s lacks spans %v", path, missing))
	}
	res.info["trace_file"] = path
	return nil
}
