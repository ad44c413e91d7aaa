// Command partition decomposes a single mesh file with either MCML+DT
// (the paper's algorithm) or the ML+RCB baseline and prints the
// partition-quality metrics of Section 5.1.
//
// Usage:
//
//	partition -mesh FILE -k N [-algo mcmldt|mlrcb] [-seed N]
//	          [-backend multilevel|rcb|sfc|bkmeans]
//	          [-imbalance F] [-cweight N] [-maxp N] [-maxi N] [-tol F]
//	partition -graph FILE.graph -k N [-method rb|direct]   # raw METIS graph
//	partition ... -phases -obs rep.json                    # per-phase timings
//	partition ... -cpuprofile cpu.pprof -memprofile mem.pprof
//	partition -bench-json BENCH_partition.json -k 16       # serial-vs-parallel KWay bench
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/meshgen"
	"repro/internal/metrics"
	"repro/internal/mlrcb"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("partition: ")
	ctx := context.Background()
	var (
		meshPath  = flag.String("mesh", "", "mesh file (from cmd/meshgen)")
		graphPath = flag.String("graph", "", "METIS .graph file (partition a raw graph instead of a mesh)")
		method    = flag.String("method", "rb", "graph partitioning method: rb (recursive bisection) or direct (multilevel k-way)")
		k         = flag.Int("k", 25, "number of partitions")
		algo      = flag.String("algo", "mcmldt", "algorithm: mcmldt or mlrcb")
		backendF  = flag.String("backend", "", "mcmldt partitioning backend: multilevel (default), rcb, sfc, or bkmeans")
		seed      = flag.Int64("seed", 1, "random seed")
		imbalance = flag.Float64("imbalance", 0.05, "per-constraint load imbalance tolerance")
		cweight   = flag.Int("cweight", 5, "contact-contact edge weight (mcmldt)")
		maxp      = flag.Int("maxp", 0, "guidance-tree max_p (0 = auto)")
		maxi      = flag.Int("maxi", 0, "guidance-tree max_i (0 = auto)")
		tol       = flag.Float64("tol", 0.5, "contact search proximity tolerance")
		phases    = flag.Bool("phases", false, "print the per-phase timing table")
		obsPath   = flag.String("obs", "", "write the per-phase observability report (JSON) to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a runtime/pprof heap profile to this file")
		benchJSON = flag.String("bench-json", "", "run the serial-vs-parallel KWay benchmark and write the JSON report to this file")
		benchRuns = flag.Int("bench-runs", 3, "repetitions per benchmark leg (best time wins)")
		workers   = flag.Int("workers", 0, "worker-pool size for the parallel leg (0 = GOMAXPROCS)")
		benchSnap = flag.Int("bench-snapshots", 0, "with -bench-json: also amortize adaptive warm-start vs from-scratch repartitioning over N snapshots")
	)
	flag.Parse()

	if *k < 1 {
		log.Fatalf("-k %d: partition count must be >= 1", *k)
	}
	if math.IsNaN(*imbalance) || math.IsInf(*imbalance, 0) || *imbalance < 0 {
		log.Fatalf("-imbalance %v: must be finite and >= 0", *imbalance)
	}
	if math.IsNaN(*tol) || math.IsInf(*tol, 0) || *tol < 0 {
		log.Fatalf("-tol %v: must be finite and >= 0", *tol)
	}
	if *cweight < 0 {
		log.Fatalf("-cweight %d: must be >= 0", *cweight)
	}
	if *maxp < 0 || *maxi < 0 {
		log.Fatalf("-maxp/-maxi must be >= 0 (0 = auto), got %d/%d", *maxp, *maxi)
	}
	if _, err := backend.Lookup(*backendF); err != nil {
		log.Fatal(err)
	}

	if *cpuProf != "" {
		stop, err := obs.StartCPUProfile(*cpuProf)
		if err != nil {
			log.Fatal(err)
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
	col := obs.New()
	reportObs := func() {
		if *phases {
			fmt.Println("\nPer-phase timings:")
			col.Report().WriteTable(os.Stdout)
		}
		if *obsPath != "" {
			if err := col.Report().WriteJSONFile(*obsPath); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote observability report to %s\n", *obsPath)
		}
	}

	if *benchJSON != "" {
		if err := benchPartition(ctx, *graphPath, *meshPath, *k, *seed, *imbalance, *workers, *benchRuns, *benchSnap, *benchJSON); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *graphPath != "" {
		partitionGraphFile(ctx, *graphPath, *k, *method, *seed, *imbalance, col)
		reportObs()
		return
	}
	if *meshPath == "" {
		log.Fatal("one of -mesh or -graph is required")
	}
	m, err := mesh.LoadFile(*meshPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: %d nodes, %d elements, %d surface elements, %d contact nodes\n",
		m.NumNodes(), m.NumElems(), len(m.Surface), len(m.ContactNodes()))

	switch *algo {
	case "mcmldt":
		nodal := mesh.DefaultNodalOptions()
		nodal.ContactEdgeWeight = int32(*cweight)
		d, err := core.Decompose(m, core.Config{
			K: *k, Seed: *seed, Imbalance: *imbalance,
			Nodal: nodal, MaxPure: *maxp, MaxImpure: *maxi, Parallel: true,
			Backend: *backendF,
			Obs:     col,
		})
		if err != nil {
			log.Fatal(err)
		}
		s := d.Stats()
		name := "MCML+DT"
		if *backendF != "" && *backendF != "multilevel" {
			name = fmt.Sprintf("MCML+DT[%s]", *backendF)
		}
		fmt.Printf("%s %d-way (max_p=%d, max_i=%d):\n", name, *k, d.Cfg.MaxPure, d.Cfg.MaxImpure)
		fmt.Printf("  FEComm (comm volume)   %d\n", s.FEComm)
		fmt.Printf("  EdgeCut                %d\n", s.EdgeCut)
		fmt.Printf("  LoadImbalance          FE %.4f, contact %.4f\n", s.Imbalance[0], s.Imbalance[1])
		fmt.Printf("  NTNodes                %d (height %d)\n", s.NTNodes, s.TreeHeight)
		fmt.Printf("  NRemote                %d\n", d.NRemote(m, *tol))
	case "mlrcb":
		st, err := mlrcb.Decompose(m, mlrcb.Config{K: *k, Seed: *seed, Imbalance: *imbalance})
		if err != nil {
			log.Fatal(err)
		}
		imb := metrics.LoadImbalance(st.Graph, st.MeshLabels, *k)
		m2m, err := st.M2MComm(st.MeshLabels)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ML+RCB %d-way:\n", *k)
		fmt.Printf("  FEComm (comm volume)   %d\n", metrics.CommVolume(st.Graph, st.MeshLabels, *k))
		fmt.Printf("  EdgeCut                %d\n", partition.EdgeCut(st.Graph, st.MeshLabels))
		fmt.Printf("  LoadImbalance          FE %.4f\n", imb[0])
		fmt.Printf("  M2MComm                %d (of %d contact points)\n", m2m, len(st.ContactNodes))
		fmt.Printf("  NRemote                %d\n", st.NRemote(m, *tol))
	default:
		log.Fatalf("unknown -algo %q (want mcmldt or mlrcb)", *algo)
	}
	reportObs()
}

// benchLeg is one side of the serial-vs-parallel comparison.
type benchLeg struct {
	BestNS  int64 `json:"best_ns"`
	EdgeCut int64 `json:"edgecut"`
	Tasks   int64 `json:"rb_tasks,omitempty"`
	MaxWork int64 `json:"rb_workers_max,omitempty"`
}

// benchReport is the BENCH_partition.json schema.
type benchReport struct {
	Graph struct {
		NV, NE, NCon int
		Source       string `json:"source"`
	} `json:"graph"`
	K               int            `json:"k"`
	Seed            int64          `json:"seed"`
	Runs            int            `json:"runs"`
	GOMAXPROCS      int            `json:"gomaxprocs"`
	Workers         int            `json:"workers"`
	Serial          benchLeg       `json:"serial"`
	Parallel        benchLeg       `json:"parallel"`
	LabelsIdentical bool           `json:"labels_identical"`
	Speedup         float64        `json:"speedup"`
	Snapshots       *snapshotBench `json:"snapshots,omitempty"`
}

// snapshotLeg is one strategy's amortized cost/quality over a
// deforming snapshot sequence.
type snapshotLeg struct {
	TotalNS      int64   `json:"total_ns"`
	PerSnapshot  int64   `json:"ns_per_snapshot"`
	FinalCut     int64   `json:"final_cut"`
	MaxImbalance float64 `json:"max_imbalance"`
	Kept         int     `json:"kept,omitempty"`
	Diffused     int     `json:"diffused,omitempty"`
	Full         int     `json:"full,omitempty"`
	Migrated     int     `json:"migrated,omitempty"`
}

// snapshotBench compares adaptive warm-start repartitioning against
// partitioning every snapshot from scratch, on the same sequence of
// nodal graphs.
type snapshotBench struct {
	N           int         `json:"n"`
	Incremental snapshotLeg `json:"incremental"`
	Scratch     snapshotLeg `json:"scratch"`
	Speedup     float64     `json:"speedup"`
	CutRatio    float64     `json:"cut_ratio"`
}

// benchGraph loads the benchmark graph: an explicit -graph file, the
// nodal graph of an explicit -mesh, or (default) the projectile scene
// at Refine=2 — large enough (~60k nodes) to cross the parallel
// recursion cutoff of 1<<14.
func benchGraph(graphPath, meshPath string) (*graph.Graph, string, error) {
	switch {
	case graphPath != "":
		f, err := os.Open(graphPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		g, err := graph.ReadMetis(f)
		return g, graphPath, err
	case meshPath != "":
		m, err := mesh.LoadFile(meshPath)
		if err != nil {
			return nil, "", err
		}
		return m.NodalGraph(mesh.DefaultNodalOptions()), meshPath, nil
	default:
		cfg := meshgen.DefaultScene()
		cfg.Refine = 2
		m, si, err := meshgen.ProjectileScene(cfg)
		if err != nil {
			return nil, "", err
		}
		meshgen.DesignateContact(m, si)
		return m.NodalGraph(mesh.DefaultNodalOptions()), "meshgen:projectile-refine2", nil
	}
}

// benchPartition times the strictly serial KWay recursion against the
// pooled one on the same graph and writes a JSON report. Labels must
// come out byte-identical; the report records whether they did.
func benchPartition(ctx context.Context, graphPath, meshPath string, k int, seed int64, imbalance float64, workers, runs, benchSnap int, outPath string) error {
	g, source, err := benchGraph(graphPath, meshPath)
	if err != nil {
		return err
	}
	if runs < 1 {
		runs = 1
	}
	fmt.Printf("bench graph: %d vertices, %d edges, %d constraints (%s)\n", g.NV(), g.NE(), g.NCon, source)

	var rep benchReport
	rep.Graph.NV, rep.Graph.NE, rep.Graph.NCon, rep.Graph.Source = g.NV(), g.NE(), g.NCon, source
	rep.K, rep.Seed, rep.Runs = k, seed, runs
	rep.GOMAXPROCS, rep.Workers = runtime.GOMAXPROCS(0), workers

	leg := func(opt partition.Options) (benchLeg, []int32, error) {
		var l benchLeg
		var labels []int32
		for i := 0; i < runs; i++ {
			col := obs.New()
			opt.Obs = col
			t0 := time.Now()
			out, err := partition.KWay(ctx, g, opt)
			if err != nil {
				return l, nil, err
			}
			if ns := time.Since(t0).Nanoseconds(); l.BestNS == 0 || ns < l.BestNS {
				l.BestNS = ns
			}
			labels = out
			rep := col.Report()
			for _, c := range rep.Counters {
				if c.Name == "partition_rb_tasks" {
					l.Tasks = c.Value
				}
			}
			for _, g := range rep.Gauges {
				if g.Name == "partition_rb_workers_max" {
					l.MaxWork = g.Value
				}
			}
		}
		l.EdgeCut = partition.EdgeCut(g, labels)
		return l, labels, nil
	}

	base := partition.Options{K: k, Seed: seed, Imbalance: imbalance, Workers: workers}
	serialOpt := base
	serialOpt.ParallelCutoff = -1
	var serialLabels, parLabels []int32
	if rep.Serial, serialLabels, err = leg(serialOpt); err != nil {
		return err
	}
	if rep.Parallel, parLabels, err = leg(base); err != nil {
		return err
	}

	rep.LabelsIdentical = true
	for v := range serialLabels {
		if serialLabels[v] != parLabels[v] {
			rep.LabelsIdentical = false
			break
		}
	}
	if rep.Parallel.BestNS > 0 {
		rep.Speedup = float64(rep.Serial.BestNS) / float64(rep.Parallel.BestNS)
	}

	fmt.Printf("serial   best %12d ns  edgecut %d\n", rep.Serial.BestNS, rep.Serial.EdgeCut)
	fmt.Printf("parallel best %12d ns  edgecut %d  (tasks %d, peak workers %d)\n",
		rep.Parallel.BestNS, rep.Parallel.EdgeCut, rep.Parallel.Tasks, rep.Parallel.MaxWork)
	fmt.Printf("speedup %.2fx on GOMAXPROCS=%d, labels identical: %v\n",
		rep.Speedup, rep.GOMAXPROCS, rep.LabelsIdentical)
	if !rep.LabelsIdentical {
		return fmt.Errorf("benchmark violated the determinism contract: serial and parallel labels differ")
	}

	if benchSnap > 1 {
		sb, err := benchSnapshots(ctx, k, seed, imbalance, benchSnap)
		if err != nil {
			return err
		}
		rep.Snapshots = sb
		fmt.Printf("snapshot sweep (%d snapshots): incremental %d ns/snapshot (kept %d, diffused %d, full %d, migrated %d), scratch %d ns/snapshot\n",
			sb.N, sb.Incremental.PerSnapshot, sb.Incremental.Kept, sb.Incremental.Diffused,
			sb.Incremental.Full, sb.Incremental.Migrated, sb.Scratch.PerSnapshot)
		fmt.Printf("snapshot sweep speedup %.2fx, final cut ratio %.3f (incremental/scratch), max imbalance %.3f vs %.3f\n",
			sb.Speedup, sb.CutRatio, sb.Incremental.MaxImbalance, sb.Scratch.MaxImbalance)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// benchSnapshots amortizes adaptive warm-start repartitioning against
// from-scratch partitioning over a deforming snapshot sequence. Nodal
// graphs are built up front so both legs time only partitioning work.
func benchSnapshots(ctx context.Context, k int, seed int64, eps float64, n int) (*snapshotBench, error) {
	cfg := sim.DefaultConfig()
	cfg.Snapshots = n
	cfg.Steps = 10 * n
	snaps, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	graphs := make([]*graph.Graph, len(snaps))
	for i := range snaps {
		graphs[i] = snaps[i].Mesh.NodalGraph(mesh.DefaultNodalOptions())
	}
	opt := partition.Options{K: k, Seed: seed, Imbalance: eps}
	thr := partition.DriftThresholds{}.WithDefaults(eps)

	worstImb := func(g *graph.Graph, labels []int32) float64 {
		worst := 1.0
		for _, x := range partition.LoadImbalances(g, labels, k) {
			worst = math.Max(worst, x)
		}
		return worst
	}
	// carry maps snapshot t's labels onto snapshot t+1's vertices via
	// the persistent node ids; nodes born between snapshots inherit
	// partition 0 and are rebalanced by the repartitioner.
	carry := func(prev []int32, from, to int) []int32 {
		byID := make(map[int64]int32, len(prev))
		for v, id := range snaps[from].NodeID {
			byID[id] = prev[v]
		}
		next := make([]int32, graphs[to].NV())
		for v, id := range snaps[to].NodeID {
			next[v] = byID[id]
		}
		return next
	}

	bench := &snapshotBench{N: len(snaps)}

	// Scratch leg: full multilevel partition of every snapshot.
	t0 := time.Now()
	var scratchLabels []int32
	for _, g := range graphs {
		if scratchLabels, err = partition.KWay(ctx, g, opt); err != nil {
			return nil, err
		}
		bench.Scratch.MaxImbalance = math.Max(bench.Scratch.MaxImbalance, worstImb(g, scratchLabels))
	}
	bench.Scratch.TotalNS = time.Since(t0).Nanoseconds()
	bench.Scratch.FinalCut = partition.EdgeCut(graphs[len(graphs)-1], scratchLabels)

	// Incremental leg: warm-start each snapshot from the previous
	// labels and let the drift policy choose keep/diffuse/full.
	t0 = time.Now()
	labels, err := partition.KWay(ctx, graphs[0], opt)
	if err != nil {
		return nil, err
	}
	bench.Incremental.MaxImbalance = worstImb(graphs[0], labels)
	baseCut := partition.EdgeCut(graphs[0], labels)
	for t := 1; t < len(graphs); t++ {
		g := graphs[t]
		labels = carry(labels, t-1, t)
		cur := partition.MeasureDrift(g, labels, k)
		switch thr.Decide(cur, baseCut, eps) {
		case partition.DriftKeep:
			bench.Incremental.Kept++
			bench.Incremental.MaxImbalance = math.Max(bench.Incremental.MaxImbalance, cur.Imbalance)
			continue // baseline cut stays pinned to the last repair
		case partition.DriftDiffuse:
			bench.Incremental.Diffused++
			migrated, err := partition.Repartition(g, labels, partition.RepartitionOptions{Options: opt})
			if err != nil {
				return nil, err
			}
			bench.Incremental.Migrated += migrated
		case partition.DriftFull:
			bench.Incremental.Full++
			prev := labels
			if labels, err = partition.KWay(ctx, g, opt); err != nil {
				return nil, err
			}
			bench.Incremental.Migrated += len(prev) - partition.Overlap(prev, labels)
		}
		baseCut = partition.EdgeCut(g, labels)
		bench.Incremental.MaxImbalance = math.Max(bench.Incremental.MaxImbalance, worstImb(g, labels))
	}
	bench.Incremental.TotalNS = time.Since(t0).Nanoseconds()
	bench.Incremental.FinalCut = partition.EdgeCut(graphs[len(graphs)-1], labels)

	bench.Scratch.PerSnapshot = bench.Scratch.TotalNS / int64(len(snaps))
	bench.Incremental.PerSnapshot = bench.Incremental.TotalNS / int64(len(snaps))
	if bench.Incremental.TotalNS > 0 {
		bench.Speedup = float64(bench.Scratch.TotalNS) / float64(bench.Incremental.TotalNS)
	}
	if bench.Scratch.FinalCut > 0 {
		bench.CutRatio = float64(bench.Incremental.FinalCut) / float64(bench.Scratch.FinalCut)
	}
	return bench, nil
}

// partitionGraphFile partitions a raw METIS graph file and prints the
// quality metrics.
func partitionGraphFile(ctx context.Context, path string, k int, method string, seed int64, imbalance float64, col *obs.Collector) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	g, err := graph.ReadMetis(f)
	_ = f.Close() // read-only; a close error after a successful read carries no data
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges, %d constraints\n", g.NV(), g.NE(), g.NCon)
	opt := partition.Options{K: k, Seed: seed, Imbalance: imbalance}
	var labels []int32
	ph := col.Phase(nil, "partition")
	switch method {
	case "rb":
		labels, err = partition.KWay(ctx, g, opt)
	case "direct":
		labels, err = partition.PartitionDirect(ctx, g, opt)
	default:
		log.Fatalf("unknown -method %q", method)
	}
	ph.End()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s %d-way:\n", method, k)
	fmt.Printf("  EdgeCut                %d\n", partition.EdgeCut(g, labels))
	fmt.Printf("  CommVolume             %d\n", metrics.CommVolume(g, labels, k))
	imb := metrics.LoadImbalance(g, labels, k)
	for j, x := range imb {
		fmt.Printf("  LoadImbalance[%d]       %.4f\n", j, x)
	}
}
