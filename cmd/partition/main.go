// Command partition decomposes a single mesh file with either MCML+DT
// (the paper's algorithm) or the ML+RCB baseline and prints the
// partition-quality metrics of Section 5.1.
//
// Usage:
//
//	partition -mesh FILE -k N [-algo mcmldt|mlrcb] [-seed N]
//	          [-backend multilevel|rcb|sfc|bkmeans]
//	          [-imbalance F] [-cweight N] [-maxp N] [-maxi N] [-tol F]
//	partition -graph FILE.graph -k N      # raw METIS graph
//	partition ... -phases -obs rep.json   # per-phase timings
//	partition ... -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/mlrcb"
	"repro/internal/obs"
	"repro/internal/partition"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("partition: ")
	ctx := context.Background()
	var (
		meshPath  = flag.String("mesh", "", "mesh file (from cmd/meshgen)")
		graphPath = flag.String("graph", "", "METIS .graph file (partition a raw graph instead of a mesh)")
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

	if *graphPath != "" {
		partitionGraphFile(ctx, *graphPath, *k, *seed, *imbalance, col)
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

// partitionGraphFile partitions a raw METIS graph file and prints the
// quality metrics.
func partitionGraphFile(ctx context.Context, path string, k int, seed int64, imbalance float64, col *obs.Collector) {
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
	ph := col.Phase(nil, "partition")
	labels, err := partition.KWay(ctx, g, opt)
	ph.End()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d-way:\n", k)
	fmt.Printf("  EdgeCut                %d\n", partition.EdgeCut(g, labels))
	fmt.Printf("  CommVolume             %d\n", metrics.CommVolume(g, labels, k))
	imb := metrics.LoadImbalance(g, labels, k)
	for j, x := range imb {
		fmt.Printf("  LoadImbalance[%d]       %.4f\n", j, x)
	}
}
