// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md and micro-benchmarks of the substrates. Metric values are
// attached to each benchmark via b.ReportMetric, so `go test -bench=.`
// both times the pipeline and reprints the evaluation numbers.
//
// The benchmarks run at a reduced scale (~10k-node scene, 6
// snapshots) so the suite finishes in minutes; cmd/contactbench
// regenerates Table 1 at the paper profile (~70k nodes, 100
// snapshots).
package repro_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro"
	"repro/internal/contact"
	"repro/internal/core"
	"repro/internal/dtree"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/matching"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/rcb"
	"repro/internal/sim"
)

var (
	seqOnce sync.Once
	seq     []repro.Snapshot
)

// benchSnapshots lazily builds the shared benchmark sequence.
func benchSnapshots(b *testing.B) []repro.Snapshot {
	b.Helper()
	seqOnce.Do(func() {
		cfg := repro.DefaultSimConfig()
		cfg.Snapshots = 6
		cfg.Steps = 60
		var err error
		seq, err = repro.RunSimulation(cfg)
		if err != nil {
			panic(err)
		}
	})
	return seq
}

// BenchmarkTable1 regenerates the paper's Table 1: the six Section 5.1
// metrics for MCML+DT and ML+RCB at 25 and 100 partitions, averaged
// over the snapshot sequence.
func BenchmarkTable1(b *testing.B) {
	for _, k := range []int{25, 100} {
		b.Run(ksuffix(k), func(b *testing.B) {
			snaps := benchSnapshots(b)
			var last *repro.ExperimentResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := repro.RunExperiment(context.Background(), snaps, repro.ExperimentConfig{K: k, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.Avg.MCFEComm, "MC-FEComm")
			b.ReportMetric(last.Avg.MCNTNodes, "MC-NTNodes")
			b.ReportMetric(last.Avg.MCNRemote, "MC-NRemote")
			b.ReportMetric(last.Avg.MLFEComm, "ML-FEComm")
			b.ReportMetric(last.Avg.MLM2MComm, "ML-M2MComm")
			b.ReportMetric(last.Avg.MLUpdComm, "ML-UpdComm")
			b.ReportMetric(last.Avg.MLNRemote, "ML-NRemote")
		})
	}
}

// BenchmarkTable1Derived reports the paper's headline claim: the total
// pre-search communication of ML+RCB (FEComm + 2*M2MComm + UpdComm)
// relative to MCML+DT's FEComm, in percent. At this reduced benchmark
// scale the percentage is much smaller than at the paper profile (the
// contact-node fraction and M2MComm shrink with the scene); see
// results/table1_paper_profile.txt and EXPERIMENTS.md for the
// full-scale numbers.
func BenchmarkTable1Derived(b *testing.B) {
	for _, k := range []int{25, 100} {
		b.Run(ksuffix(k), func(b *testing.B) {
			snaps := benchSnapshots(b)
			var pct float64
			for i := 0; i < b.N; i++ {
				r, err := repro.RunExperiment(context.Background(), snaps, repro.ExperimentConfig{K: k, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				ml := r.Avg.MLFEComm + 2*r.Avg.MLM2MComm + r.Avg.MLUpdComm
				pct = 100 * (ml - r.Avg.MCFEComm) / r.Avg.MCFEComm
			}
			b.ReportMetric(pct, "ML-extra-comm-%")
		})
	}
}

// BenchmarkFigure1 regenerates Figure 1: decision-tree induction over
// a 3-way partitioning of 45 clustered contact points, reporting the
// tree size (5 nodes for the paper's axis-parallel layout).
func BenchmarkFigure1(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	var pts []geom.Point
	var labels []int32
	for i := 0; i < 15; i++ {
		pts = append(pts, geom.P2(r.Float64()*4.2, r.Float64()*4.2))
		labels = append(labels, 0)
	}
	for i := 0; i < 15; i++ {
		pts = append(pts, geom.P2(r.Float64()*10, 5.2+r.Float64()*4.5))
		labels = append(labels, 1)
	}
	for i := 0; i < 15; i++ {
		pts = append(pts, geom.P2(5.2+r.Float64()*4.5, r.Float64()*4.2))
		labels = append(labels, 2)
	}
	var nodes int
	for i := 0; i < b.N; i++ {
		t, err := dtree.Build(pts, labels, 2, 3, dtree.Options{Mode: dtree.Descriptor})
		if err != nil {
			b.Fatal(err)
		}
		nodes = t.NumNodes()
	}
	b.ReportMetric(float64(nodes), "NTNodes")
}

// BenchmarkFigure2 regenerates Figure 2: the tree-size blowup of a
// diagonal subdomain boundary versus an axis-parallel one over the
// same 28 points.
func BenchmarkFigure2(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	n := 28
	pts := make([]geom.Point, n)
	diag := make([]int32, n)
	axis := make([]int32, n)
	for i := range pts {
		x, y := r.Float64()*10, r.Float64()*10
		pts[i] = geom.P2(x, y)
		if y > x {
			diag[i] = 1
		}
		if y > 5 {
			axis[i] = 1
		}
	}
	var aN, dN int
	for i := 0; i < b.N; i++ {
		at, err := dtree.Build(pts, axis, 2, 2, dtree.Options{Mode: dtree.Descriptor})
		if err != nil {
			b.Fatal(err)
		}
		dt, err := dtree.Build(pts, diag, 2, 2, dtree.Options{Mode: dtree.Descriptor})
		if err != nil {
			b.Fatal(err)
		}
		aN, dN = at.NumNodes(), dt.NumNodes()
	}
	b.ReportMetric(float64(aN), "axis-NTNodes")
	b.ReportMetric(float64(dN), "diag-NTNodes")
}

// BenchmarkFigure3 regenerates Figure 3's underlying data: the full
// kinematic penetration simulation (node motion, crater deformation,
// element erosion, contact re-designation).
func BenchmarkFigure3(b *testing.B) {
	cfg := repro.DefaultSimConfig()
	cfg.Snapshots = 6
	cfg.Steps = 60
	var eroded int
	for i := 0; i < b.N; i++ {
		snaps, err := repro.RunSimulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eroded = snaps[0].Mesh.NumElems() - snaps[len(snaps)-1].Mesh.NumElems()
	}
	b.ReportMetric(float64(eroded), "eroded-elements")
}

// BenchmarkSection42Sweep regenerates the Section 4.2 parameter study
// at three (max_p, max_i) operating points: below, inside, and above
// the recommended ranges.
func BenchmarkSection42Sweep(b *testing.B) {
	snaps := benchSnapshots(b)
	m := snaps[0].Mesh
	n := m.NumNodes()
	const k = 16
	cases := []struct {
		name       string
		maxP, maxI int
	}{
		{"below", 8, 2},
		{"inside", n / 64, n/256 + 2}, // ~ n/k^1.5, n/k^2
		{"above", n / 4, n / 16},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var s core.Stats
			for i := 0; i < b.N; i++ {
				d, err := core.Decompose(m, core.Config{
					K: k, Seed: 5, MaxPure: c.maxP, MaxImpure: c.maxI, Parallel: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				s = d.Stats()
			}
			b.ReportMetric(float64(s.NTNodes), "NTNodes")
			b.ReportMetric(s.Imbalance[1], "contact-imbalance")
		})
	}
}

// BenchmarkAblationReshape measures the decision-tree-friendly
// boundary reshaping (Section 4.2) on vs off: reshaping should shrink
// the descriptor tree at a small FEComm cost.
func BenchmarkAblationReshape(b *testing.B) {
	snaps := benchSnapshots(b)
	m := snaps[0].Mesh
	for _, skip := range []bool{false, true} {
		name := "reshape-on"
		if skip {
			name = "reshape-off"
		}
		b.Run(name, func(b *testing.B) {
			var s core.Stats
			for i := 0; i < b.N; i++ {
				d, err := core.Decompose(m, core.Config{K: 25, Seed: 1, SkipReshape: skip, Parallel: true})
				if err != nil {
					b.Fatal(err)
				}
				s = d.Stats()
			}
			b.ReportMetric(float64(s.NTNodes), "NTNodes")
			b.ReportMetric(float64(s.FEComm), "FEComm")
		})
	}
}

// BenchmarkAblationTreeFilter compares the raw leaf-rectangle filter
// (the paper's descriptor) against the tight per-leaf point-box
// refinement during global search.
func BenchmarkAblationTreeFilter(b *testing.B) {
	snaps := benchSnapshots(b)
	m := snaps[0].Mesh
	d, err := core.Decompose(m, core.Config{K: 25, Seed: 1, Parallel: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, tight := range []bool{false, true} {
		name := "loose"
		if tight {
			name = "tight"
		}
		b.Run(name, func(b *testing.B) {
			var nr int64
			for i := 0; i < b.N; i++ {
				nr = core.NRemote(m, d.Labels, d.Descriptor, d.ContactPoints, d.ContactLabels, 0.5, tight)
			}
			b.ReportMetric(float64(nr), "NRemote")
		})
	}
}

// BenchmarkAblationEdgeWeight compares contact-contact edge weight 1
// vs the paper's 5.
func BenchmarkAblationEdgeWeight(b *testing.B) {
	snaps := benchSnapshots(b)
	m := snaps[0].Mesh
	for _, w := range []int32{1, 5} {
		b.Run("w"+string(rune('0'+w)), func(b *testing.B) {
			nodal := mesh.DefaultNodalOptions()
			nodal.ContactEdgeWeight = w
			var s core.Stats
			for i := 0; i < b.N; i++ {
				d, err := core.Decompose(m, core.Config{K: 25, Seed: 1, Nodal: nodal, Parallel: true})
				if err != nil {
					b.Fatal(err)
				}
				s = d.Stats()
			}
			b.ReportMetric(float64(s.EdgeCut), "EdgeCut")
			b.ReportMetric(float64(s.FEComm), "FEComm")
		})
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkPartitionMultiConstraint times the multilevel
// multi-constraint partitioner on the benchmark mesh's nodal graph.
func BenchmarkPartitionMultiConstraint(b *testing.B) {
	snaps := benchSnapshots(b)
	g := snaps[0].Mesh.NodalGraph(mesh.DefaultNodalOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.KWay(context.Background(), g, partition.Options{K: 25, Seed: int64(i), Imbalance: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDescriptorTree times contact-point decision-tree induction
// (the per-time-step update cost of MCML+DT).
func BenchmarkDescriptorTree(b *testing.B) {
	snaps := benchSnapshots(b)
	m := snaps[0].Mesh
	d, err := core.Decompose(m, core.Config{K: 25, Seed: 1, Parallel: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dtree.Build(d.ContactPoints, d.ContactLabels, 3, 25,
			dtree.Options{Mode: dtree.Descriptor, Parallel: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRCBUpdate times the ML+RCB incremental repartitioning step.
func BenchmarkRCBUpdate(b *testing.B) {
	snaps := benchSnapshots(b)
	m := snaps[0].Mesh
	nodes := m.ContactNodes()
	pts := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		pts[i] = m.Coords[n]
	}
	tree, _, err := rcb.Build(pts, 3, 25)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Update(pts)
	}
}

// BenchmarkGlobalSearch times the parallel surface-element sweep
// against the decision-tree descriptor.
func BenchmarkGlobalSearch(b *testing.B) {
	snaps := benchSnapshots(b)
	m := snaps[0].Mesh
	d, err := core.Decompose(m, core.Config{K: 25, Seed: 1, Parallel: true})
	if err != nil {
		b.Fatal(err)
	}
	owners := contact.SurfaceOwners(m, d.Labels)
	boxes := contact.SurfaceBoxes(m, 0.5)
	f := &contact.TreeFilter{
		Tree:       d.Descriptor,
		Labels:     d.ContactLabels,
		TightBoxes: d.Descriptor.PointBoxes(d.ContactPoints),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contact.NRemote(boxes, owners, f)
	}
}

// BenchmarkHungarian times the k x k maximum-weight matching used for
// the M2MComm partition mapping.
func BenchmarkHungarian(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const k = 100
	w := make([][]int64, k)
	for i := range w {
		w[i] = make([]int64, k)
		for j := range w[i] {
			w[i][j] = int64(r.Intn(1000))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := matching.MaxWeightAssign(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimStep times one kinematic simulation step.
func BenchmarkSimStep(b *testing.B) {
	cfg := repro.DefaultSimConfig()
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func ksuffix(k int) string {
	if k == 25 {
		return "k25"
	}
	return "k100"
}

// BenchmarkAblationGeometric compares the multilevel MCML+DT pipeline
// with the geometric backends the paper's conclusions propose (box or
// curve-segment subdomains, minimal trees, worse cut): multi-constraint
// RCB, Hilbert-curve splitting, and balanced k-means.
func BenchmarkAblationGeometric(b *testing.B) {
	snaps := benchSnapshots(b)
	m := snaps[0].Mesh
	for _, be := range []string{"multilevel", "rcb", "sfc", "bkmeans"} {
		b.Run(be, func(b *testing.B) {
			var s core.Stats
			for i := 0; i < b.N; i++ {
				d, err := core.Decompose(m, core.Config{K: 25, Seed: 1, Backend: be, Parallel: true})
				if err != nil {
					b.Fatal(err)
				}
				s = d.Stats()
			}
			b.ReportMetric(float64(s.NTNodes), "NTNodes")
			b.ReportMetric(float64(s.FEComm), "FEComm")
			b.ReportMetric(s.Imbalance[1], "contact-imbalance")
		})
	}
}

// BenchmarkParallelIteration times one full parallel iteration of the
// decomposed computation (ghost exchange + tree broadcast + element
// shipping + local search) on k message-passing workers.
func BenchmarkParallelIteration(b *testing.B) {
	snaps := benchSnapshots(b)
	m := snaps[len(snaps)-1].Mesh
	d, err := core.Decompose(m, core.Config{K: 16, Seed: 1, Parallel: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var st *engine.Stats
	for i := 0; i < b.N; i++ {
		st, err = engine.Run(context.Background(), m, d, 0.5, engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.GhostUnits), "ghost-units")
	b.ReportMetric(float64(st.ElemsShipped), "elems-shipped")
	b.ReportMetric(float64(len(st.Pairs)), "contact-pairs")
}
