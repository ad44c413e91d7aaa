package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/mlrcb"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/sim"
)

// BackendRow is one leg of the backend crossover comparison: the
// snapshot-averaged quality metrics plus the partitioning speed of one
// algorithm at one k.
type BackendRow struct {
	// Leg identifies the pipeline: "mcml+dt" (multilevel + reshape),
	// "ml+rcb" (the paper's baseline), "sfc", or "bkmeans".
	Leg string `json:"leg"`
	// Cut is the average nodal-graph edge cut over the snapshots.
	Cut float64 `json:"cut"`
	// ImbalanceFE / ImbalanceContact are the average per-constraint
	// load imbalances (max/avg, 1.0 = perfect).
	ImbalanceFE      float64 `json:"imbalance_fe"`
	ImbalanceContact float64 `json:"imbalance_contact"`
	// NRemote is the average global-search volume.
	NRemote float64 `json:"nremote"`
	// PartitionNS is the best-of-runs wall time of one partitioning
	// call on the first snapshot (the leg's raw partitioner only, no
	// tree induction).
	PartitionNS int64 `json:"partition_ns"`
}

// BackendComparison is the 4-way comparison at one k — one element of
// the BENCH_backends.json crossover table.
type BackendComparison struct {
	K         int          `json:"k"`
	Snapshots int          `json:"snapshots"`
	Rows      []BackendRow `json:"rows"`
}

// backendLeg binds a display name to how the leg is evaluated: legs
// with a core backend run the core pipeline; the ml+rcb leg runs the
// mlrcb incremental pipeline. timeAs names the backend whose raw
// Partition call is timed for PartitionNS.
type backendLeg struct {
	name   string
	core   string // core.Config.Backend, "" = not a core leg
	timeAs string
}

var compareLegs = []backendLeg{
	{name: "mcml+dt", core: "multilevel", timeAs: "multilevel"},
	{name: "ml+rcb", timeAs: "rcb"},
	{name: "sfc", core: "sfc", timeAs: "sfc"},
	{name: "bkmeans", core: "bkmeans", timeAs: "bkmeans"},
}

// CompareBackends runs the 4-way backend comparison (MCML+DT, ML+RCB,
// SFC, BKMeans) over the snapshot sequence at cfg.K: every leg carries
// its snapshot-0 partition across the sequence via persistent node ids
// (the paper's update strategy), refreshes descriptors per snapshot,
// and averages cut, per-constraint imbalance, and NRemote. runs (>= 1)
// extra timing passes measure each leg's raw partitioner best-of-runs.
// Legs run concurrently on the pool (cfg.SerialLegs forces one at a
// time) and each records a "backend_leg" span and per-leg obs counters
// ("compare_<leg>_snapshots", "compare_<leg>_partition_ns"). Rows come
// back in the fixed leg order, deterministic apart from PartitionNS.
func CompareBackends(ctx context.Context, snaps []sim.Snapshot, cfg Config, runs int) (*BackendComparison, error) {
	cfg = cfg.withDefaults()
	if len(snaps) == 0 {
		return nil, fmt.Errorf("harness: no snapshots")
	}
	if runs < 1 {
		runs = 1
	}
	ctx, cmpSpan := obs.StartSpan(ctx, "backend_compare",
		obs.Int("k", int64(cfg.K)), obs.Track(fmt.Sprintf("compare k=%d", cfg.K)))
	defer cmpSpan.End()

	cmp := &BackendComparison{K: cfg.K, Snapshots: len(snaps), Rows: make([]BackendRow, len(compareLegs))}
	workers := len(compareLegs)
	if cfg.SerialLegs {
		workers = 1
	}
	fns := make([]func() error, len(compareLegs))
	for i, leg := range compareLegs {
		i, leg := i, leg
		fns[i] = func() error {
			_, legSpan := obs.StartSpan(ctx, "backend_leg", obs.Str("leg", leg.name))
			defer legSpan.End()
			var row BackendRow
			var err error
			if leg.core != "" {
				row, err = coreCompareLeg(snaps, cfg, leg, legSpan)
			} else {
				row, err = mlrcbCompareLeg(snaps, cfg, leg)
			}
			if err != nil {
				return fmt.Errorf("harness: %s leg: %w", leg.name, err)
			}
			row.PartitionNS, err = timeBackend(snaps[0], cfg, leg.timeAs, runs)
			if err != nil {
				return fmt.Errorf("harness: %s timing: %w", leg.name, err)
			}
			cfg.Obs.Add(obsKey(leg.name)+"_snapshots", int64(len(snaps))) //lint:ignore metricname leg names come from the fixed backendLegs registry: bounded, lowercase families
			cfg.Obs.Add(obsKey(leg.name)+"_partition_ns", row.PartitionNS)
			cmp.Rows[i] = row
			return nil
		}
	}
	if err := pool.Run(workers, fns...); err != nil {
		return nil, err
	}
	return cmp, nil
}

// obsKey turns a display leg name into a counter-friendly key
// ("mcml+dt" -> "compare_mcmldt").
func obsKey(name string) string {
	out := []byte("compare_")
	for i := 0; i < len(name); i++ {
		if c := name[i]; c != '+' {
			out = append(out, c)
		}
	}
	return string(out)
}

// coreCompareLeg evaluates one core-pipeline leg: decompose snapshot 0
// with the leg's backend, keep the partition fixed across snapshots,
// refresh descriptors, and average the quality metrics.
func coreCompareLeg(snaps []sim.Snapshot, cfg Config, leg backendLeg, span *obs.Span) (BackendRow, error) {
	row := BackendRow{Leg: leg.name}
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
		SkipReshape: cfg.SkipReshape,
		Backend:     leg.core,
		Parallel:    true,
		Obs:         cfg.Obs,
		Span:        span,
	}
	d0, err := core.Decompose(snaps[0].Mesh, coreCfg)
	if err != nil {
		return row, err
	}
	byID := labelMap(snaps[0].NodeID, d0.Labels)
	for _, sn := range snaps {
		m := sn.Mesh
		labels := lookupLabels(sn.NodeID, byID)
		g := m.NodalGraph(mesh.NodalGraphOptions{NCon: 2})
		row.Cut += float64(partition.EdgeCut(g, labels))
		imb := metrics.LoadImbalance(g, labels, cfg.K)
		row.ImbalanceFE += imb[0]
		row.ImbalanceContact += imb[1]
		desc, _, contactPts, contactLabels, err := core.DescriptorFor(m, labels, coreCfg)
		if err != nil {
			return row, err
		}
		row.NRemote += float64(core.NRemote(m, labels, desc, contactPts, contactLabels, cfg.SearchTol, !cfg.LooseTreeFilter))
	}
	row.average(len(snaps))
	return row, nil
}

// mlrcbCompareLeg evaluates the ML+RCB baseline with its own
// incremental update pipeline.
func mlrcbCompareLeg(snaps []sim.Snapshot, cfg Config, leg backendLeg) (BackendRow, error) {
	row := BackendRow{Leg: leg.name}
	st, err := mlrcb.Decompose(snaps[0].Mesh, mlrcb.Config{K: cfg.K, Seed: cfg.Seed, Imbalance: cfg.Imbalance})
	if err != nil {
		return row, err
	}
	byID := labelMap(snaps[0].NodeID, st.MeshLabels)
	for t, sn := range snaps {
		m := sn.Mesh
		if t > 0 {
			st.Update(m)
		}
		labels := lookupLabels(sn.NodeID, byID)
		g := m.NodalGraph(mesh.NodalGraphOptions{NCon: 2})
		row.Cut += float64(partition.EdgeCut(g, labels))
		imb := metrics.LoadImbalance(g, labels, cfg.K)
		row.ImbalanceFE += imb[0]
		row.ImbalanceContact += imb[1]
		row.NRemote += float64(st.NRemote(m, cfg.SearchTol))
	}
	row.average(len(snaps))
	return row, nil
}

func (r *BackendRow) average(n int) {
	f := float64(n)
	r.Cut /= f
	r.ImbalanceFE /= f
	r.ImbalanceContact /= f
	r.NRemote /= f
}

// timeBackend measures one raw backend Partition call on the first
// snapshot's nodal graph, best of runs passes.
func timeBackend(sn sim.Snapshot, cfg Config, name string, runs int) (int64, error) {
	be, err := backend.Lookup(name)
	if err != nil {
		return 0, err
	}
	m := sn.Mesh
	g := m.NodalGraph(mesh.NodalGraphOptions{
		NCon:              2,
		ContactEdgeWeight: cfg.ContactEdgeWeight,
		FEWeight:          1,
		ContactWeight:     1,
	})
	in := backend.Input{Graph: g, Coords: m.Coords, Dim: m.Dim}
	opt := backend.Options{K: cfg.K, Seed: cfg.Seed, Imbalance: cfg.Imbalance}
	best := int64(0)
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		if _, err := be.Partition(in, opt); err != nil {
			return 0, err
		}
		if ns := int64(time.Since(t0)); best == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}
