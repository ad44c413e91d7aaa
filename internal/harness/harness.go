// Package harness drives the paper's evaluation (Section 5): it runs a
// snapshot sequence from the impact simulation through both MCML+DT
// and ML+RCB, carries each algorithm's mesh partition across snapshots
// via the simulator's persistent node ids (the paper's default update
// strategy keeps the partition fixed and only refreshes the geometric
// descriptors), measures the six metrics of Section 5.1 on every
// snapshot, and averages them into the rows of Table 1.
//
// RunSweep is the one entry point. The pipeline is concurrent at two
// levels, both on internal/pool: RunSweep fans independent experiment
// configs (the k-sweep) out over a bounded worker pool, and within
// each experiment the MCML+DT and ML+RCB sides run in parallel: the
// two decompositions, then each snapshot's two measurement legs. Both
// levels preserve the exact serial results: legs write disjoint Row
// fields, snapshots stay ordered, and RunSweep returns results in
// config order.
package harness

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"repro/internal/contact"
	"repro/internal/core"
	"repro/internal/dtree"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/mlrcb"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/sim"
)

// Config parameterizes one experiment (one k).
type Config struct {
	K         int
	Seed      int64
	Imbalance float64
	// SearchTol inflates surface-element boxes during global search
	// (contact proximity tolerance). Default 0.5.
	SearchTol float64
	// ContactEdgeWeight is the weight of contact-contact edges in the
	// MCML+DT graph (paper: 5). Zero selects 5.
	ContactEdgeWeight int32
	// MaxPure/MaxImpure override the guidance-tree thresholds
	// (0 = auto per Section 4.2 ranges).
	MaxPure   int
	MaxImpure int
	// SkipReshape ablates the tree-guided boundary reshaping.
	SkipReshape bool
	// LooseTreeFilter ablates the tight per-leaf point boxes in the
	// MCML+DT global search (uses raw leaf rectangles instead).
	LooseTreeFilter bool
	// Backend selects the MCML+DT side's partitioning backend (see
	// internal/backend): "" or "multilevel" is the paper's pipeline;
	// "rcb", "sfc", and "bkmeans" swap in a geometric partitioner
	// (reshaping is then skipped, per the backend's capabilities).
	Backend string
	// WideGaps selects margin-aware descriptor-tree hyperplanes
	// (future-work tree induction).
	WideGaps bool
	// RepartitionEvery > 0 recomputes both decompositions every that
	// many snapshots (the hybrid strategy of Section 4.3); 0 keeps the
	// snapshot-0 partitions throughout (the paper's evaluated setting).
	RepartitionEvery int
	// Incremental makes the periodic update the drift ladder's diffuse
	// rung on the MCML+DT side (core.ForceDiffuse: bounded-migration
	// repair, escalating to a full partition past Drift.FullImbalance)
	// instead of a fresh partition of both sides. Only meaningful with
	// RepartitionEvery > 0.
	Incremental bool
	// Adaptive enables the warm-started drift policy for the MCML+DT
	// side: every snapshot inherits the previous snapshot's labels via
	// the persistent node ids and core.AdaptiveDecompose decides
	// between keeping them, diffusion repair, and a full repartition
	// (Section 4.3). Takes precedence over RepartitionEvery for the
	// MCML+DT side; the ML+RCB side is unaffected. Off by default: the
	// paper's evaluated setting keeps the snapshot-0 partition.
	Adaptive bool
	// Drift tunes the adaptive policy's thresholds (zero value =
	// partition.DriftThresholds defaults). Read when Adaptive; the
	// Incremental cadence reads its FullImbalance escalation bound.
	Drift partition.DriftThresholds
	// SerialLegs runs the per-snapshot measurement legs, and the
	// MCML+DT and ML+RCB decompositions at snapshot 0 and on full
	// repartitions, one after the other instead of concurrently (used
	// by tests to verify the concurrent path is observationally
	// identical, and as an escape hatch on single-core hosts).
	SerialLegs bool
	// Obs, when non-nil, receives per-phase timings: "partition" and
	// "tree_induction" from the decomposition pipeline plus
	// "metric_eval" per snapshot leg. Shared by concurrent legs and
	// experiments (the collector is concurrency-safe). When the ctx
	// passed to RunSweep carries a trace span, every phase also records
	// a same-named span beneath it.
	Obs *obs.Collector
}

func (c Config) withDefaults() Config {
	if c.SearchTol == 0 {
		c.SearchTol = 0.5
	}
	if c.ContactEdgeWeight == 0 {
		c.ContactEdgeWeight = 5
	}
	if c.Imbalance == 0 {
		c.Imbalance = 0.05
	}
	return c
}

// Row holds the six Section 5.1 metrics for one snapshot.
type Row struct {
	// MCML+DT side.
	MCFEComm  int64
	MCNTNodes int64
	MCNRemote int64
	// ML+RCB side.
	MLFEComm  int64
	MLM2MComm int64
	MLUpdComm int64
	MLNRemote int64
}

func (r *Row) add(o Row) {
	r.MCFEComm += o.MCFEComm
	r.MCNTNodes += o.MCNTNodes
	r.MCNRemote += o.MCNRemote
	r.MLFEComm += o.MLFEComm
	r.MLM2MComm += o.MLM2MComm
	r.MLUpdComm += o.MLUpdComm
	r.MLNRemote += o.MLNRemote
}

// EvalTimes is the measured wall clock of one snapshot's two
// measurement legs plus the snapshot's repartitioning event, if any.
// It feeds the per-snapshot time series (series.go) and is persisted
// in the checkpoint so a resumed sweep's series is complete. The
// repartition fields are omitted when empty, so checkpoints of
// non-adaptive sweeps keep their historical shape.
type EvalTimes struct {
	MCNS int64 `json:"mc_ns"`
	MLNS int64 `json:"ml_ns"`
	// Repart is the drift decision that ran before this snapshot's
	// measurement ("keep", "diffuse", "full"; empty = no repartition
	// event), and Migrated the number of nodes that changed partition
	// because of it — the Section 2 repartitioning objective.
	Repart   string `json:"repart,omitempty"`
	Migrated int64  `json:"migrated,omitempty"`
}

// Result is an experiment's outcome.
type Result struct {
	K         int
	Snapshots int
	Rows      []Row
	// evals holds per-snapshot leg wall-clock times, parallel to Rows.
	// Unexported on purpose: timing is nondeterministic, and Result's
	// JSON form must stay byte-identical across checkpoint resumes.
	// Series (series.go) is the exported view.
	evals []EvalTimes
	// Avg holds the per-snapshot averages (UpdComm is averaged over
	// snapshots 1..n-1, since no update happens at snapshot 0).
	Avg struct {
		MCFEComm, MCNTNodes, MCNRemote    float64
		MLFEComm, MLM2MComm, MLNRemote    float64
		MLUpdComm                         float64
		MCImbalanceFE, MCImbalanceContact float64
	}
}

// run is the checkpoint-aware experiment loop. When ck is non-nil it
// resumes experiment exp from the checkpointed cursor: the carried
// partition state (repartitions, incremental RCB updates, the
// previous-labels table) is fast-forwarded through the already-measured
// snapshots — it is deterministic from the seed, so replaying it is
// exact — while their rows and imbalance accumulators are taken from
// the checkpoint, skipping the expensive metric legs. Each newly
// measured snapshot is recorded to ck before the loop advances, and a
// context cancellation returns ctx.Err() with all completed snapshots
// durably checkpointed. The Result of a resumed run is byte-identical
// to an uninterrupted one.
func run(ctx context.Context, snaps []sim.Snapshot, cfg Config, ck *Checkpointer, exp int, prog *Progress) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(snaps) == 0 {
		return nil, fmt.Errorf("harness: no snapshots")
	}

	// When the context carries a trace span, this experiment records a
	// span tree under it: one "experiment" span per config on its own
	// track, one "snapshot" span per measured snapshot, one leg span
	// ("metric_eval" with a leg attribute) per measurement leg. With no
	// span in ctx all of this is free.
	ctx, expSpan := obs.StartSpan(ctx, "experiment",
		obs.Int("k", int64(cfg.K)), obs.Track(fmt.Sprintf("harness k=%d", cfg.K)))
	defer expSpan.End()

	coreCfg := core.Config{
		K:         cfg.K,
		Seed:      cfg.Seed,
		Imbalance: cfg.Imbalance,
		Nodal: mesh.NodalGraphOptions{
			NCon:              2,
			ContactEdgeWeight: cfg.ContactEdgeWeight,
			FEWeight:          1,
			ContactWeight:     1,
		},
		MaxPure:     cfg.MaxPure,
		MaxImpure:   cfg.MaxImpure,
		SkipReshape: cfg.SkipReshape,
		Backend:     cfg.Backend,
		WideGaps:    cfg.WideGaps,
		Drift:       cfg.Drift,
		Parallel:    true,
		Obs:         cfg.Obs,
		Span:        expSpan,
	}
	mlCfg := mlrcb.Config{K: cfg.K, Seed: cfg.Seed, Imbalance: cfg.Imbalance}
	legWorkers := 2
	if cfg.SerialLegs {
		legWorkers = 1
	}

	res := &Result{K: cfg.K, Snapshots: len(snaps)}

	// Label tables indexed by persistent node id, -1 where the id is
	// absent. Ids only disappear along a snapshot sequence, so snapshot
	// 0's largest id sizes them all.
	nID := int64(0)
	for _, id := range snaps[0].NodeID {
		nID = max(nID, id+1)
	}
	mcByID, mlByID := make([]int32, nID), make([]int32, nID)
	prevRCB, curRCB := make([]int32, nID), make([]int32, nID)
	clearLabels(prevRCB)
	var mlState *mlrcb.State
	var imbFE, imbContact float64
	var baseCut int64 // adaptive drift baseline (cut after the last repair)
	// g is the current snapshot's nodal graph under coreCfg.Nodal, the
	// one graph its decomposition and both legs' metrics read; nil on a
	// replayed snapshot that needs none. next is the following
	// snapshot's graph when it was derived beside this snapshot's legs.
	var g, next *graph.Graph
	// boxes are the current snapshot's surface search boxes, which both
	// legs read; nextBoxes the following snapshot's, when they were
	// built beside this snapshot's legs. carry holds the descriptor's
	// presort from the last snapshot the MC leg induced one for; a
	// checkpoint resume starts it cold.
	var boxes, nextBoxes []geom.AABB
	var carry dtree.Carry

	// start is the first snapshot still to be measured; everything
	// before it is already in the checkpoint.
	start := 0
	if ck != nil {
		st := ck.state(exp)
		start = st.Cursor
		res.Rows = append(res.Rows, st.Rows...)
		res.evals = append(res.evals, st.Evals...)
		imbFE, imbContact = st.ImbFE, st.ImbContact
	}
	prog.set(exp, start)

	// decompose partitions sn from scratch on both sides, the MCML+DT
	// side on sn's graph g, at snapshot 0 and on every full
	// -repart-every event; prev are the MCML+DT labels it replaces, if
	// any. It carries the ML+RCB state; the MCML+DT side's carry is the
	// caller's.
	decompose := func(sn sim.Snapshot, g *graph.Graph, prev []int32) (d *core.Decomposition, out core.AdaptiveOutcome, err error) {
		var st *mlrcb.State
		err = pool.Run(legWorkers, func() (err error) {
			d, out, err = core.DecomposeGraph(sn.Mesh, g, prev, 0, coreCfg, core.FromScratch)
			return err
		}, func() (err error) {
			st, err = mlrcb.Decompose(sn.Mesh, mlCfg)
			return err
		})
		if err != nil {
			return nil, out, err
		}
		mlState = st
		setLabels(mlByID, sn.NodeID, st.MeshLabels)
		return d, out, nil
	}
	g = snaps[0].Mesh.NodalGraph(coreCfg.Nodal)
	d0, out0, err := decompose(snaps[0], g, nil)
	if err != nil {
		return nil, err
	}
	setLabels(mcByID, snaps[0].NodeID, d0.Labels)
	baseCut = out0.BaselineCut

	// nodalGraph returns snapshot t's graph, derived from prev,
	// snapshot t-1's graph, when there is one and the derivation takes
	// it, else built from scratch. The node map comes from the
	// id-indexed table of snapshot t-1's node indices. Calls must not
	// overlap: they share ws, idx and old, and each derived graph is
	// valid until the second later derivation, which is why no
	// decomposition outlives its snapshot.
	var ws mesh.NodalWorkspace
	idx, old := make([]int32, nID), []int32(nil)
	nodalGraph := func(span *obs.Span, t int, prev *graph.Graph) *graph.Graph {
		ph := cfg.Obs.Phase(span, "metric_graph", obs.Int("t", int64(t)))
		defer ph.End()
		m := snaps[t].Mesh
		if prev != nil {
			setIndices(idx, snaps[t-1].NodeID)
			old = old[:0]
			for _, id := range snaps[t].NodeID {
				old = append(old, idx[id])
			}
			if g, ok := m.NodalGraphFrom(snaps[t-1].Mesh, prev, old, coreCfg.Nodal, &ws); ok {
				return g
			}
		}
		cfg.Obs.Add("metric_graph_rebuilds", 1)
		return m.NodalGraph(coreCfg.Nodal)
	}
	surfaceBoxes := func(span *obs.Span, t int) []geom.AABB {
		ph := cfg.Obs.Phase(span, "surface_boxes", obs.Int("t", int64(t)))
		defer ph.End()
		return contact.SurfaceBoxes(snaps[t].Mesh, cfg.SearchTol)
	}
	// event reports whether snapshot t has a repartitioning event:
	// Adaptive asks the drift policy at every snapshot after the first;
	// RepartitionEvery repairs (Incremental) or recomputes every that
	// many snapshots; otherwise the partition is carried.
	event := func(t int) bool {
		return t > 0 && (cfg.Adaptive || cfg.RepartitionEvery > 0 && t%cfg.RepartitionEvery == 0)
	}

	// advanceRCB runs the incremental RCB update for snapshot t and
	// carries the contact labels forward by persistent id. It returns
	// UpdComm, the number of contact nodes whose subdomain changed (0
	// at snapshot 0, where every previous label is absent).
	advanceRCB := func(t int, sn sim.Snapshot) int64 {
		if t > 0 {
			mlState.Update(sn.Mesh)
		}
		moved := int64(0)
		clearLabels(curRCB)
		for i, n := range mlState.ContactNodes {
			id, l := sn.NodeID[n], mlState.ContactLabels[i]
			curRCB[id] = l
			if prev := prevRCB[id]; prev >= 0 && prev != l {
				moved++
			}
		}
		prevRCB, curRCB = curRCB, prevRCB
		return moved
	}

	for t, sn := range snaps {
		if t > 0 {
			prev := g // snapshot t-1's graph, if it was built
			g, next = next, nil
			boxes, nextBoxes = nextBoxes, nil
			// A replayed snapshot needs its graph only for its event.
			if g == nil && (t >= start || event(t)) {
				g = nodalGraph(expSpan, t, prev)
			}
		}
		// d is snapshot t's decomposition, if it has one: its descriptor
		// is the one the MC leg would induce.
		var d *core.Decomposition
		if t == 0 {
			d = d0
		}
		// Snapshot t's repartitioning event, decided here alone. The
		// carried MCML+DT partition state must advance on every
		// snapshot — including checkpoint fast-forward (it is
		// deterministic from the seed, so replaying it is exact); only
		// the obs counters are gated on t >= start so a resume does not
		// double-count replayed decisions.
		var ev EvalTimes
		if event(t) {
			prev := lookupLabels(sn.NodeID, mcByID)
			var out core.AdaptiveOutcome
			switch {
			case cfg.Adaptive:
				d, out, err = core.DecomposeGraph(sn.Mesh, g, prev, baseCut, coreCfg, core.DriftPolicy)
			case cfg.Incremental:
				d, out, err = core.DecomposeGraph(sn.Mesh, g, prev, 0, coreCfg, core.ForceDiffuse)
			default:
				d, out, err = decompose(sn, g, prev)
			}
			if err != nil {
				return nil, err
			}
			baseCut = out.BaselineCut
			if d != nil {
				setLabels(mcByID, sn.NodeID, d.Labels)
			}
			ev.Repart, ev.Migrated = out.Decision.String(), int64(out.Migrated)
			if t >= start {
				switch out.Decision {
				case partition.DriftKeep:
					cfg.Obs.Add("repartition_kept", 1)
				case partition.DriftDiffuse:
					cfg.Obs.Add("repartition_diffused", 1)
				case partition.DriftFull:
					cfg.Obs.Add("repartition_full", 1)
				}
				cfg.Obs.Add("repartition_migrated", ev.Migrated)
			}
		}
		if t < start {
			// Fast-forward an already-checkpointed snapshot: its row came
			// from the checkpoint, so only the RCB state carried across
			// snapshots is replayed and the metric legs are skipped.
			advanceRCB(t, sn)
			continue
		}
		if err := ctx.Err(); err != nil {
			// Interrupted: every completed snapshot is already durable in
			// the checkpoint, so the run can resume exactly here.
			return nil, err
		}
		m := sn.Mesh
		mcLabels := lookupLabels(sn.NodeID, mcByID)
		mlLabels := lookupLabels(sn.NodeID, mlByID)

		var row Row
		snapSpan := expSpan.Child("snapshot", obs.Int("t", int64(t)))
		if boxes == nil {
			boxes = surfaceBoxes(snapSpan, t)
		}

		// The two measurement legs are independent — the MC leg reads
		// only MCML+DT state and writes only the MC* fields of row
		// (plus the imbalance accumulators), the ML leg owns the RCB
		// state and the ML* fields — so they run concurrently on the
		// pool. Snapshots stay strictly ordered (both legs carry state
		// across snapshots), which keeps Rows identical to the serial
		// path.
		mcLeg := func() error {
			ph := cfg.Obs.Phase(snapSpan, "metric_eval", obs.Str("leg", "mc"))
			defer func() { ev.MCNS = int64(ph.End()) }()
			row.MCFEComm = metrics.CommVolume(g, mcLabels, cfg.K)

			// MCML+DT: refresh the descriptor tree for the moved
			// contact points (partition unchanged — the paper's update
			// strategy), unless a decomposition just induced it.
			src := d
			if src == nil {
				src = &core.Decomposition{}
				var err error
				if src.Descriptor, _, src.ContactPoints, src.ContactLabels, err = core.Descriptor(m, mcLabels, coreCfg, &carry, sn.NodeID); err != nil {
					return err
				}
			}
			row.MCNTNodes = int64(src.Descriptor.NumNodes())
			row.MCNRemote = core.NRemoteBoxes(m, mcLabels, src.Descriptor, src.ContactPoints, src.ContactLabels, boxes, !cfg.LooseTreeFilter)

			imb := metrics.LoadImbalance(g, mcLabels, cfg.K)
			imbFE += imb[0]
			imbContact += imb[1]
			return nil
		}
		mlLeg := func() error {
			ph := cfg.Obs.Phase(snapSpan, "metric_eval", obs.Str("leg", "ml"))
			defer func() { ev.MLNS = int64(ph.End()) }()
			row.MLFEComm = metrics.CommVolume(g, mlLabels, cfg.K)

			// ML+RCB: incremental RCB update, then the decoupling costs.
			row.MLUpdComm = advanceRCB(t, sn)
			m2m, err := mlState.M2MComm(mlLabels)
			if err != nil {
				return err
			}
			row.MLM2MComm = int64(m2m)
			row.MLNRemote = mlState.NRemoteBoxes(m, boxes)
			return nil
		}
		// When the next snapshot has no repartitioning event, its graph
		// and search boxes are built as a third task beside the legs, off
		// the next snapshot's critical path. An event snapshot derives
		// its graph at the top of its iteration instead: a third task on
		// every adaptive snapshot would compete with the short legs.
		tasks := []func() error{mcLeg, mlLeg}
		if u := t + 1; u < len(snaps) && !event(u) {
			cur := g
			tasks = append(tasks, func() error {
				next = nodalGraph(snapSpan, u, cur)
				nextBoxes = surfaceBoxes(snapSpan, u)
				return nil
			})
		}
		err := pool.Run(legWorkers, tasks...)
		snapSpan.End()
		if err != nil {
			return nil, err
		}

		res.Rows = append(res.Rows, row)
		res.evals = append(res.evals, ev)
		if ck != nil {
			if err := ck.record(expSpan, exp, t+1, row, ev, imbFE, imbContact); err != nil {
				return nil, fmt.Errorf("harness: checkpoint snapshot %d: %w", t, err)
			}
		}
		prog.set(exp, t+1)
	}

	n := float64(len(res.Rows))
	var sum Row
	for _, r := range res.Rows {
		sum.add(r)
	}
	res.Avg.MCFEComm = float64(sum.MCFEComm) / n
	res.Avg.MCNTNodes = float64(sum.MCNTNodes) / n
	res.Avg.MCNRemote = float64(sum.MCNRemote) / n
	res.Avg.MLFEComm = float64(sum.MLFEComm) / n
	res.Avg.MLM2MComm = float64(sum.MLM2MComm) / n
	res.Avg.MLNRemote = float64(sum.MLNRemote) / n
	if n > 1 {
		res.Avg.MLUpdComm = float64(sum.MLUpdComm) / (n - 1)
	}
	res.Avg.MCImbalanceFE = imbFE / n
	res.Avg.MCImbalanceContact = imbContact / n
	return res, nil
}

// SweepOptions configures RunSweep beyond the experiment configs
// themselves. The zero value is a plain concurrent sweep on
// GOMAXPROCS workers with no checkpointing, no progress tracking, and
// no tracing.
type SweepOptions struct {
	// Workers bounds the experiment worker pool (<= 0 = GOMAXPROCS).
	Workers int
	// Checkpoint, when non-nil, makes the sweep resumable: progress is
	// flushed after every measured snapshot, and a Checkpointer loaded
	// from a previous run's file resumes each experiment at its saved
	// cursor. A completed-then-resumed sweep returns Results
	// byte-identical to an uninterrupted one.
	Checkpoint *Checkpointer
	// Progress, when non-nil, receives live per-experiment cursor
	// updates (the /progress endpoint's source).
	Progress *Progress
}

// RunSweep executes independent experiment configs (typically a
// k-sweep) concurrently on a bounded worker pool and returns the
// results in config order. Each experiment is internally
// deterministic for its seed, so the returned Results are identical
// to running the configs serially — concurrency only buys wall-clock
// time. A panicking experiment surfaces as a *pool.PanicError;
// cancelling ctx stops the sweep with everything completed so far
// durable in the checkpoint (if any). When ctx carries a trace span,
// every experiment, snapshot, and measurement leg records a span
// beneath it.
func RunSweep(ctx context.Context, snaps []sim.Snapshot, cfgs []Config, o SweepOptions) ([]*Result, error) {
	return pool.Map(o.Workers, len(cfgs), func(i int) (*Result, error) {
		return run(ctx, snaps, cfgs[i], o.Checkpoint, i, o.Progress)
	})
}

// clearLabels marks every id of the id-indexed label table byID absent.
func clearLabels(byID []int32) {
	for i := range byID {
		byID[i] = -1
	}
}

// setLabels refills byID with labels[v] under the persistent id of
// each node v.
func setLabels(byID []int32, ids []int64, labels []int32) {
	clearLabels(byID)
	for v, id := range ids {
		byID[id] = labels[v]
	}
}

// setIndices refills byID with each node's index under its persistent
// id.
func setIndices(byID []int32, ids []int64) {
	clearLabels(byID)
	for v, id := range ids {
		byID[id] = int32(v)
	}
}

// lookupLabels resolves the current mesh's labels from an id-indexed
// table (nodes only ever disappear, so every id is present).
func lookupLabels(ids []int64, byID []int32) []int32 {
	out := make([]int32, len(ids))
	for v, id := range ids {
		out[v] = byID[id]
	}
	return out
}

// WriteCSV emits the per-snapshot metric rows as CSV (one line per
// snapshot per result), for plotting the evolution of the metrics over
// the simulation.
func WriteCSV(w io.Writer, results []*Result) error {
	cw := csv.NewWriter(w)
	header := []string{"k", "snapshot",
		"mc_fecomm", "mc_ntnodes", "mc_nremote",
		"ml_fecomm", "ml_m2mcomm", "ml_updcomm", "ml_nremote"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range results {
		for t, row := range r.Rows {
			rec := []string{
				strconv.Itoa(r.K), strconv.Itoa(t),
				strconv.FormatInt(row.MCFEComm, 10),
				strconv.FormatInt(row.MCNTNodes, 10),
				strconv.FormatInt(row.MCNRemote, 10),
				strconv.FormatInt(row.MLFEComm, 10),
				strconv.FormatInt(row.MLM2MComm, 10),
				strconv.FormatInt(row.MLUpdComm, 10),
				strconv.FormatInt(row.MLNRemote, 10),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable renders results in the layout of the paper's Table 1.
func WriteTable(w io.Writer, results []*Result) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tMCML+DT\t\t\tML+RCB\t\t\t")
	fmt.Fprintln(tw, "\tFEComm\tNTNodes\tNRemote\tFEComm\tM2MComm\tUpdComm\tNRemote")
	for _, r := range results {
		fmt.Fprintf(tw, "%d-way\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
			r.K,
			r.Avg.MCFEComm, r.Avg.MCNTNodes, r.Avg.MCNRemote,
			r.Avg.MLFEComm, r.Avg.MLM2MComm, r.Avg.MLUpdComm, r.Avg.MLNRemote)
	}
	// Human-readable best-effort output, matching the fmt.Fprintf calls
	// above; a broken terminal is not an actionable error here.
	_ = tw.Flush()
}

// WriteDerived prints the paper's derived Table 1 claims: the total
// pre-search communication ratio (ML+RCB pays FEComm + 2*M2MComm +
// UpdComm against MCML+DT's FEComm) and the NRemote comparison.
func WriteDerived(w io.Writer, results []*Result) {
	for _, r := range results {
		mc := r.Avg.MCFEComm
		ml := r.Avg.MLFEComm + 2*r.Avg.MLM2MComm + r.Avg.MLUpdComm
		fmt.Fprintf(w, "%d-way: ML+RCB pre-search communication is %.0f vs MCML+DT %.0f (%+.0f%%); ",
			r.K, ml, mc, 100*(ml-mc)/mc)
		fmt.Fprintf(w, "NRemote MCML+DT %.0f vs ML+RCB %.0f (%+.1f%% for ML+RCB)\n",
			r.Avg.MCNRemote, r.Avg.MLNRemote,
			100*(r.Avg.MLNRemote-r.Avg.MCNRemote)/r.Avg.MCNRemote)
	}
}
