// Command contactbench reproduces the paper's evaluation (Section 5):
// it runs the synthetic projectile/two-plate sequence through MCML+DT
// and ML+RCB and prints Table 1 (the six metrics averaged over the
// snapshot sequence) plus the derived communication-ratio claims.
//
// Usage:
//
//	contactbench                       # Table 1 at the paper profile
//	contactbench -quick                # small scene, few snapshots
//	contactbench -k 25,100 -snapshots 100
//	contactbench -ablate               # design-choice ablations
//	contactbench -sweep                # Section 4.2 max_p/max_i sweep
//	contactbench -workers 8            # concurrent k-sweep on 8 workers
//	contactbench -phases -obs rep.json # per-phase timing table + JSON report
//	contactbench -cpuprofile cpu.pprof -memprofile mem.pprof
//	contactbench -checkpoint sweep.ckpt           # checkpoint after every snapshot
//	contactbench -checkpoint sweep.ckpt -resume   # continue a killed sweep
//
// SIGINT/SIGTERM interrupt the sweep gracefully: completed snapshots
// stay durable in the checkpoint, the observability report (if
// requested) is still written, and the process exits with status 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/sim"
)

func main() {
	// The real work lives in run so deferred cleanups (profile
	// writers) execute before the explicit exit code.
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("contactbench: ")
	var (
		kList      = flag.String("k", "25,100", "comma-separated partition counts")
		refine     = flag.Int("refine", 0, "override scene refinement")
		snapshots  = flag.Int("snapshots", 0, "override snapshot count")
		quick      = flag.Bool("quick", false, "small scene and 10 snapshots (seconds instead of minutes)")
		seed       = flag.Int64("seed", 1, "random seed")
		ablate     = flag.Bool("ablate", false, "also run the design-choice ablations")
		sweep      = flag.Bool("sweep", false, "run the Section 4.2 max_p/max_i sensitivity sweep")
		csvPath    = flag.String("csv", "", "also write per-snapshot metric rows to this CSV file")
		workers    = flag.Int("workers", 0, "worker-pool size for the concurrent k-sweep (0 = GOMAXPROCS)")
		phases     = flag.Bool("phases", false, "print the per-phase timing/counter table")
		obsPath    = flag.String("obs", "", "write the per-phase observability report (JSON) to this file")
		promPath   = flag.String("prom", "", "write the final observability report as Prometheus text exposition to this file")
		cpuProf    = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a runtime/pprof heap profile to this file")
		ckptPath   = flag.String("checkpoint", "", "checkpoint sweep progress to this file after every snapshot")
		resume     = flag.Bool("resume", false, "resume the sweep from the -checkpoint file")
		tracePath  = flag.String("trace", "", "write a Chrome trace-event JSON timeline (Perfetto/chrome://tracing) to this file")
		httpAddr   = flag.String("http", "", "serve /metrics, /progress, and /debug/pprof/* on this address during the run (e.g. :6060)")
		seriesPath = flag.String("series", "", "write the per-snapshot metric/eval-time series to this file (.csv for CSV, else JSON)")
		engineLeg  = flag.Bool("engine", false, "also run one resilient engine iteration per k on the first snapshot")
		chaosSeed  = flag.Int64("chaos", 0, "with -engine: inject deterministic first-attempt transport faults from this seed (0 = off)")

		backendF     = flag.String("backend", "", "MCML+DT partitioning backend: multilevel (default), rcb, sfc, or bkmeans")
		adaptive     = flag.Bool("adaptive", false, "adaptive warm-start repartitioning: keep/diffuse/full per snapshot by drift policy")
		repartEvery  = flag.Int("repart-every", 0, "repartition the MCML+DT side every N snapshots (0 = keep the snapshot-0 partition throughout)")
		incremental  = flag.Bool("incremental", false, "with -repart-every: warm-start via diffusion instead of from scratch")
		driftCut     = flag.Float64("drift-cut", 0, "with -adaptive: relative cut-drift that triggers a diffusion repair (0 = default)")
		driftFullCut = flag.Float64("drift-full-cut", 0, "with -adaptive: relative cut-drift that forces a full repartition (0 = default)")
		driftImb     = flag.Float64("drift-imb", 0, "with -adaptive or -incremental: imbalance that forces a full repartition (0 = default)")
	)
	flag.Parse()
	if *resume && *ckptPath == "" {
		log.Print("-resume requires -checkpoint")
		return 2
	}
	update := harness.Config{
		Backend:          *backendF,
		Adaptive:         *adaptive,
		RepartitionEvery: *repartEvery,
		Incremental:      *incremental,
		Drift: partition.DriftThresholds{
			CutDrift:      *driftCut,
			FullCutDrift:  *driftFullCut,
			FullImbalance: *driftImb,
		},
	}
	if err := checkUpdate(update); err != nil {
		log.Print(err)
		return 2
	}

	// A first SIGINT/SIGTERM cancels the sweep context (the harness
	// stops at the next snapshot boundary, with everything completed so
	// far already checkpointed); a second signal kills the process the
	// default way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *cpuProf != "" {
		stop, err := obs.StartCPUProfile(*cpuProf)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				log.Print(err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memProf); err != nil {
				log.Print(err)
			}
		}()
	}

	ks, err := parseKs(*kList)
	if err != nil {
		log.Print(err)
		return 2
	}

	cfg := sim.PaperConfig()
	if *quick {
		cfg = sim.DefaultConfig()
		cfg.Snapshots = 10
		cfg.Steps = 100
	}
	if *refine > 0 {
		cfg.Scene.Refine = *refine
	}
	if *snapshots > 0 {
		cfg.Snapshots = *snapshots
		if cfg.Steps < cfg.Snapshots {
			cfg.Steps = 4 * cfg.Snapshots
		}
	}

	t0 := time.Now()
	snaps, err := sim.Run(cfg)
	if err != nil {
		log.Print(err)
		return 1
	}
	if ctx.Err() != nil {
		log.Print("interrupted during snapshot generation")
		return 130
	}
	m0 := snaps[0].Mesh
	fmt.Printf("sequence: %d snapshots; initial mesh %d nodes, %d elements, %d contact surfaces, %d contact nodes (%.1f%%) [%.1fs]\n\n",
		len(snaps), m0.NumNodes(), m0.NumElems(), len(m0.Surface), len(m0.ContactNodes()),
		100*float64(len(m0.ContactNodes()))/float64(m0.NumNodes()), time.Since(t0).Seconds())

	col := obs.New()
	var tracer *obs.Tracer
	var rootSpan *obs.Span
	if *tracePath != "" {
		tracer = obs.NewTracer()
		rootSpan = tracer.Root("contactbench")
	}
	// writeObs flushes the observability outputs; it runs on success
	// AND on interruption so a killed sweep still leaves its report
	// and trace.
	writeObs := func() int {
		if *phases {
			fmt.Println("\nPer-phase timings and counters:")
			col.Report().WriteTable(os.Stdout)
		}
		if *obsPath != "" {
			if err := col.Report().WriteJSONFile(*obsPath); err != nil {
				log.Print(err)
				return 1
			}
			fmt.Printf("wrote observability report to %s\n", *obsPath)
		}
		if *promPath != "" {
			f, err := os.Create(*promPath)
			if err == nil {
				err = col.Report().WritePrometheus(f)
				if err == nil {
					err = obs.WritePrometheusRuntime(f)
				}
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				log.Print(err)
				return 1
			}
			fmt.Printf("wrote Prometheus exposition to %s\n", *promPath)
		}
		if tracer != nil {
			rootSpan.End()
			if err := tracer.WriteTraceFile(*tracePath); err != nil {
				log.Print(err)
				return 1
			}
			fmt.Printf("wrote trace to %s\n", *tracePath)
		}
		return 0
	}

	// fail is the error exit of every sweep the command runs: an
	// interrupt still writes the observability outputs and exits 130.
	var cfgs []harness.Config
	var ck *harness.Checkpointer
	fail := func(err error) int {
		if ctx.Err() == nil {
			log.Print(err)
			return 1
		}
		if ck != nil {
			log.Print("interrupted; completed snapshots are saved in the checkpoint:")
			ck.WriteSummary(os.Stderr, cfgs)
			log.Printf("rerun with -checkpoint %s -resume to continue", *ckptPath)
		} else {
			log.Print("interrupted (run with -checkpoint FILE to make sweeps resumable)")
		}
		writeObs()
		return 130
	}

	if *sweep {
		if err := runSweep(ctx, snaps, harness.Config{K: ks[0], Seed: *seed, Obs: col}, *workers); err != nil {
			return fail(err)
		}
		return writeObs()
	}

	cfgs = make([]harness.Config, len(ks))
	for i, k := range ks {
		cfgs[i] = update
		cfgs[i].K, cfgs[i].Seed, cfgs[i].Obs = k, *seed, col
	}
	if *ckptPath != "" {
		if *resume {
			loaded, lerr := harness.LoadCheckpoint(*ckptPath, snaps, cfgs)
			switch {
			case lerr == nil:
				ck = loaded
				fmt.Println("resuming from checkpoint:")
				ck.WriteSummary(os.Stdout, cfgs)
				// Fold the previous run's observability report into the
				// live collector so the final report covers the whole
				// sweep, not just the post-resume part.
				if rep := ck.SavedObs(); rep != nil {
					if err := col.Merge(*rep); err != nil {
						log.Print(err)
						return 1
					}
				}
			case errors.Is(lerr, os.ErrNotExist):
				log.Printf("no checkpoint at %s; starting fresh", *ckptPath)
			default:
				log.Print(lerr)
				return 1
			}
		}
		if ck == nil {
			ck = harness.NewCheckpointer(*ckptPath, snaps, cfgs)
		}
		ck.Obs = col
	}

	prog := harness.NewProgress(len(snaps), cfgs)
	if *httpAddr != "" {
		// The serve path logs structured JSON like partsrv does, so a
		// collector can ingest both binaries' stderr the same way.
		slg := obs.NewLogger(os.Stderr, nil)
		addr, stopServer, err := startServer(*httpAddr, col, prog)
		if err != nil {
			slg.Error("metrics server failed", "addr", *httpAddr, "err", err.Error())
			return 1
		}
		defer stopServer()
		fmt.Printf("serving /metrics, /progress, /debug/pprof on http://%s\n", addr)
		slg.Info("metrics server up", "addr", addr)
	}

	t1 := time.Now()
	results, err := harness.RunSweep(obs.ContextWithSpan(ctx, rootSpan), snaps, cfgs, harness.SweepOptions{
		Workers:    *workers,
		Checkpoint: ck,
		Progress:   prog,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Printf("[k-sweep %v done in %.1fs on %d workers]\n", ks, time.Since(t1).Seconds(), pool.Workers(*workers))
	for _, r := range results {
		fmt.Printf("[%d-way: MCML+DT avg imbalance FE %.3f / contact %.3f]\n",
			r.K, r.Avg.MCImbalanceFE, r.Avg.MCImbalanceContact)
	}
	fmt.Println("\nTable 1 (averages over the snapshot sequence):")
	harness.WriteTable(os.Stdout, results)
	fmt.Println()
	harness.WriteDerived(os.Stdout, results)
	if *adaptive || *repartEvery > 0 {
		writeRepartSummary(os.Stdout, results)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Print(err)
			return 1
		}
		if err := harness.WriteCSV(f, results); err != nil {
			log.Print(err)
			return 1
		}
		if err := f.Close(); err != nil {
			log.Print(err)
			return 1
		}
		fmt.Printf("\nwrote per-snapshot rows to %s\n", *csvPath)
	}

	if *seriesPath != "" {
		f, err := os.Create(*seriesPath)
		if err != nil {
			log.Print(err)
			return 1
		}
		if strings.HasSuffix(*seriesPath, ".csv") {
			err = harness.WriteSeriesCSV(f, results)
		} else {
			err = harness.WriteSeriesJSON(f, results)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Print(err)
			return 1
		}
		fmt.Printf("wrote per-snapshot series to %s\n", *seriesPath)
	}

	if *engineLeg {
		if err := runEngineLeg(ctx, snaps[0], ks, *seed, *chaosSeed, col, rootSpan); err != nil {
			log.Print(err)
			return 1
		}
	}

	if *ablate {
		if err := runAblations(ctx, snaps, ks, harness.Config{Seed: *seed, Obs: col}, *workers); err != nil {
			return fail(err)
		}
	}

	return writeObs()
}

// writeRepartSummary prints, per experiment, how the drift policy (or
// the fixed -repart-every cadence) decided across the sweep and how
// many nodes those decisions moved. Derived entirely from the recorded
// series, so the output is deterministic.
func writeRepartSummary(w io.Writer, results []*harness.Result) {
	fmt.Fprintln(w, "\nRepartitioning decisions:")
	byK := map[int]*struct{ kept, diffused, full, migrated int64 }{}
	var order []int
	for _, p := range harness.Series(results) {
		c := byK[p.K]
		if c == nil {
			c = &struct{ kept, diffused, full, migrated int64 }{}
			byK[p.K] = c
			order = append(order, p.K)
		}
		switch p.MCRepart {
		case "keep":
			c.kept++
		case "diffuse":
			c.diffused++
		case "full":
			c.full++
		}
		c.migrated += p.MCMigrated
	}
	for _, k := range order {
		c := byK[k]
		fmt.Fprintf(w, "  %d-way: kept %d, diffused %d, full %d; %d nodes migrated\n",
			k, c.kept, c.diffused, c.full, c.migrated)
	}
}

// checkUpdate rejects update-strategy flags that would do nothing or
// could not run, so a bad command line fails before the scene is
// generated rather than after it, or not at all.
func checkUpdate(c harness.Config) error {
	be, err := backend.Lookup(c.Backend)
	if err != nil {
		return err
	}
	switch {
	case c.Incremental && c.RepartitionEvery <= 0:
		return errors.New("-incremental requires -repart-every")
	case (c.Drift.CutDrift != 0 || c.Drift.FullCutDrift != 0) && !c.Adaptive:
		return errors.New("-drift-cut and -drift-full-cut require -adaptive")
	case c.Drift.FullImbalance != 0 && !c.Adaptive && !c.Incremental:
		return errors.New("-drift-imb requires -adaptive or -incremental")
	case (c.Adaptive || c.Incremental) && !be.Caps().Warmstart:
		return fmt.Errorf("-adaptive and -incremental need a warm-start-capable backend, %q is not", be.Name())
	}
	return nil
}

func parseKs(s string) ([]int, error) {
	var ks []int
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad -k element %q", part)
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// runAblations measures the design choices DESIGN.md calls out:
// contact-edge weight 1 vs 5, reshaping on/off, tight vs loose tree
// filter, and descriptor-only vs hybrid updates. Every variant at
// every k is one experiment of a single sweep, set up from base.
func runAblations(ctx context.Context, snaps []sim.Snapshot, ks []int, base harness.Config, workers int) error {
	type variant struct {
		name string
		cfg  func(harness.Config) harness.Config
	}
	variants := []variant{
		{"baseline (w=5, reshape, tight filter)", func(c harness.Config) harness.Config { return c }},
		{"contact edge weight 1", func(c harness.Config) harness.Config { c.ContactEdgeWeight = 1; return c }},
		{"no boundary reshaping", func(c harness.Config) harness.Config { c.SkipReshape = true; return c }},
		{"loose tree filter (raw leaf rectangles)", func(c harness.Config) harness.Config { c.LooseTreeFilter = true; return c }},
		{"hybrid updates (repartition every 10)", func(c harness.Config) harness.Config { c.RepartitionEvery = 10; return c }},
		{"geometric MC-RCB pipeline (future work)", func(c harness.Config) harness.Config { c.Backend = "rcb"; return c }},
		{"margin-aware tree splits (future work)", func(c harness.Config) harness.Config { c.WideGaps = true; return c }},
	}
	var cfgs []harness.Config
	for _, k := range ks {
		base.K = k
		for _, v := range variants {
			cfgs = append(cfgs, v.cfg(base))
		}
	}
	res, err := harness.RunSweep(ctx, snaps, cfgs, harness.SweepOptions{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Println("\nAblations:")
	for i, k := range ks {
		fmt.Printf("\n  %d-way:\n", k)
		fmt.Printf("  %-42s %10s %9s %9s %9s\n", "variant", "MCFEComm", "NTNodes", "MCNRem", "imbC")
		for j, v := range variants {
			r := res[i*len(variants)+j]
			fmt.Printf("  %-42s %10.0f %9.0f %9.0f %9.3f\n",
				v.name, r.Avg.MCFEComm, r.Avg.MCNTNodes, r.Avg.MCNRemote, r.Avg.MCImbalanceContact)
		}
	}
	return nil
}

// runSweep reproduces the Section 4.2 parameter study: max_p and max_i
// above, inside, and below the recommended ranges, as one sweep over
// snapshot 0 with base's k.
func runSweep(ctx context.Context, snaps []sim.Snapshot, base harness.Config, workers int) error {
	m := snaps[0].Mesh
	n := float64(m.NumNodes())
	k := base.K
	kf := float64(k)
	maxPs := []int{int(n / kf / 2), int(n / math.Pow(kf, 1.25)), int(n / math.Pow(kf, 1.5)), int(n * 2 / kf)}
	maxIs := []int{2, int(n / math.Pow(kf, 2.25)), int(n / (kf * kf)), int(n / kf)}

	var cfgs []harness.Config
	for _, mp := range maxPs {
		for _, mi := range maxIs {
			if mp < 4 || mi < 2 || mi > mp {
				continue
			}
			base.MaxPure, base.MaxImpure = mp, mi
			cfgs = append(cfgs, base)
		}
	}
	res, err := harness.RunSweep(ctx, snaps[:1], cfgs, harness.SweepOptions{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Printf("Section 4.2 sweep at k=%d (n=%d; recommended: max_p in [%.0f, %.0f], max_i in [%.0f, %.0f]):\n",
		k, int(n), n/math.Pow(kf, 1.5), n/kf, n/math.Pow(kf, 2.5), n/(kf*kf))
	fmt.Printf("%8s %8s %10s %9s %9s %8s %8s\n", "max_p", "max_i", "FEComm", "NTNodes", "NRemote", "imbFE", "imbC")
	for i, r := range res {
		fmt.Printf("%8d %8d %10.0f %9.0f %9.0f %8.3f %8.3f\n",
			cfgs[i].MaxPure, cfgs[i].MaxImpure, r.Avg.MCFEComm, r.Avg.MCNTNodes, r.Avg.MCNRemote,
			r.Avg.MCImbalanceFE, r.Avg.MCImbalanceContact)
	}
	return nil
}
