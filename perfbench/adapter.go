package main

// The adapter: every call the benchmark makes into the program lives
// in this file, so the rest of the benchmark speaks only its own
// types. It uses the entry points the ROADMAP keeps:
//
//   - harness.RunSweep, the ctx-first sweep entry point, for the
//     untraced sweep workloads;
//   - partsrv's HTTP API, served in-process by server.New behind
//     server.NewHTTPServer, for the serving workload;
//   - the layers' public functions (mesh.NodalGraph, core.Decompose,
//     core.AdaptiveDecompose, core.DescriptorFor, core.NRemote,
//     metrics.CommVolume/LoadImbalance, mlrcb.Decompose and the
//     mlrcb.State methods) for the traced replica of the harness loop,
//     which must reproduce RunSweep's Table-1 rows exactly.
//
// ROADMAP simplifications that will have to edit this file:
//
//   - "One update-strategy path": harness.Config.Adaptive and
//     core.AdaptiveDecompose become one policy value. sweepConfigs and
//     the adaptive branch of tracedExperiment change with them.
//   - "One ctx-first Options entry point per layer": harness.RunSweep
//     and core/partition entry points collapse into Options forms.
//     runSweep and the core.* calls in tracedExperiment change.
//   - "One metrics implementation": metrics.CommVolume and
//     metrics.LoadImbalance fold into the partition package's
//     versions. The metrics.eval span in tracedExperiment changes.
//   - "One instrumentation primitive": obs phase names may change;
//     obsPhases and the derived-span names below follow them.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/mlrcb"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/sim"
)

// The harness defaults the traced replica must match.
const (
	harnessImbalance = 0.05
	harnessSearchTol = 0.5
	harnessEdgeWt    = 5
)

// sceneSpec selects a window of a simulated penetration sequence:
// Count snapshots, one every Every steps of a Steps-step run, starting
// after the First-th snapshot position.
type sceneSpec struct {
	Paper  bool // sim.PaperConfig; otherwise sim.DefaultConfig
	Refine int
	Steps  int
	Every  int
	First  int
	Count  int
}

// scene is a generated snapshot sequence.
type scene struct {
	snaps []sim.Snapshot
}

// buildScene runs the simulation through the window, taking snapshots
// only inside it (erosion is cumulative, so skipped snapshot positions
// leave the kept meshes unchanged).
func buildScene(sp sceneSpec) (*scene, error) {
	cfg := sim.DefaultConfig()
	if sp.Paper {
		cfg = sim.PaperConfig()
	}
	cfg.Scene.Refine = sp.Refine
	cfg.Steps = sp.Steps
	cfg.Snapshots = sp.Steps / sp.Every
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	var snaps []sim.Snapshot
	for t := 1; t <= sp.Steps && len(snaps) < sp.Count; t++ {
		s.Step()
		if t%sp.Every == 0 && t/sp.Every > sp.First {
			snaps = append(snaps, s.Snapshot(len(snaps)))
		}
	}
	if len(snaps) < sp.Count {
		return nil, fmt.Errorf("scene: window %+v holds only %d snapshots", sp, len(snaps))
	}
	return &scene{snaps: snaps}, nil
}

// sweepSpec is one sweep: the ks, the partitioner seed and the update
// strategy (fixed partition, or the adaptive drift policy).
type sweepSpec struct {
	Ks       []int
	Seed     int64
	Adaptive bool
}

// table1 is one experiment's Table-1 output: per-snapshot rows
// (MCFEComm, MCNTNodes, MCNRemote, MLFEComm, MLM2MComm, MLUpdComm,
// MLNRemote) and the averages (the same seven, then the MCML+DT FE
// and contact imbalance).
type table1 struct {
	K    int
	Rows [][7]int64
	Avg  [9]float64
}

// Indexes into table1.Avg.
const (
	avgMCFEComm = iota
	avgMCNTNodes
	avgMCNRemote
	avgMLFEComm
	avgMLM2MComm
	avgMLUpdComm
	avgMLNRemote
	avgImbFE
	avgImbContact
)

// sweepOut is what a sweep produced.
type sweepOut struct {
	Tables []table1
	// SnapNS is, per (k, snapshot), the wall time of the snapshot's
	// measurement (the longer of the two concurrent legs), as the
	// harness reports it in its per-snapshot series.
	SnapNS []int64
	// Migrated is, per (k, snapshot > 0), the MCML+DT nodes that
	// changed partition at that snapshot.
	Migrated []int64
	// Rungs counts the adaptive policy's rungs; Escalations the
	// diffuse decisions that escalated to full (traced replica only).
	Rungs       map[string]int
	Escalations int
	// NTNodes sums the descriptor-tree sizes over all evaluations.
	NTNodes int64
}

func sweepConfigs(sp sweepSpec) []harness.Config {
	cfgs := make([]harness.Config, len(sp.Ks))
	for i, k := range sp.Ks {
		cfgs[i] = harness.Config{K: k, Seed: sp.Seed, Adaptive: sp.Adaptive}
	}
	return cfgs
}

// runSweep runs the sweep through harness.RunSweep with one
// experiment worker, so the two measurement legs are the only
// concurrency.
func runSweep(ctx context.Context, sc *scene, sp sweepSpec) (sweepOut, error) {
	res, err := harness.RunSweep(ctx, sc.snaps, sweepConfigs(sp), harness.SweepOptions{Workers: 1})
	if err != nil {
		return sweepOut{}, err
	}
	var out sweepOut
	for _, r := range res {
		tab := table1{K: r.K, Rows: make([][7]int64, len(r.Rows))}
		for t, row := range r.Rows {
			tab.Rows[t] = [7]int64{row.MCFEComm, row.MCNTNodes, row.MCNRemote,
				row.MLFEComm, row.MLM2MComm, row.MLUpdComm, row.MLNRemote}
		}
		a := r.Avg
		tab.Avg = [9]float64{a.MCFEComm, a.MCNTNodes, a.MCNRemote, a.MLFEComm, a.MLM2MComm,
			a.MLUpdComm, a.MLNRemote, a.MCImbalanceFE, a.MCImbalanceContact}
		out.Tables = append(out.Tables, tab)
	}
	for _, p := range harness.Series(res) {
		out.SnapNS = append(out.SnapNS, max(p.MCEvalNS, p.MLEvalNS))
		if p.Snapshot > 0 {
			out.Migrated = append(out.Migrated, p.MCMigrated)
		}
		out.NTNodes += p.MCNTNodes
	}
	return out, nil
}

// obsPhases maps the program's obs phase names to the benchmark's
// derived span names. Nested phases (the bisection phases inside
// partition) are children of their container.
var obsPhases = []struct {
	phase, span, parent string
}{
	{"drift_eval", "partition.drift_eval", ""},
	{"partition", "partition.partition", ""},
	{"rb_coarsen", "partition.rb_coarsen", "partition"},
	{"rb_initcut", "partition.rb_initcut", "partition"},
	{"rb_refine", "partition.rb_refine", "partition"},
	{"tree_induction", "dtree.tree_induction", ""},
}

// phaseTotals is an obs report's total time per phase.
func phaseTotals(rep obs.Report) map[string]int64 {
	total := map[string]int64{}
	for _, p := range rep.Phases {
		total[p.Name] = p.TotalNS
	}
	return total
}

// deriveObs adds s's program-reported phase totals as derived child
// spans. With no "partition" phase (serving jobs call the partitioner
// directly) the bisection phases hang off s itself.
func deriveObs(tr *tracer, s *span, total map[string]int64) {
	made := map[string]*span{}
	for _, p := range obsPhases {
		ns, ok := total[p.phase]
		if !ok {
			continue
		}
		parent := s
		if c := made[p.parent]; c != nil {
			parent = c
		}
		made[p.phase] = tr.derive(parent, p.span, ns)
	}
}

// tracedSweep replicates harness.RunSweep's experiment loop, one call
// per layer, each inside a span, with the two measurement legs run
// serially so that allocation deltas belong to one span.
func tracedSweep(sc *scene, sp sweepSpec, tr *tracer) (sweepOut, error) {
	out := sweepOut{Rungs: map[string]int{}}
	root := tr.begin(nil, "harness.sweep")
	defer tr.finish(root)
	for _, k := range sp.Ks {
		exp := tr.begin(root, "harness.experiment")
		tab, err := tracedExperiment(sc, k, sp, tr, exp, &out)
		tr.finish(exp)
		if err != nil {
			return out, err
		}
		out.Tables = append(out.Tables, tab)
	}
	return out, nil
}

func tracedExperiment(sc *scene, k int, sp sweepSpec, tr *tracer, exp *span, out *sweepOut) (table1, error) {
	tab := table1{K: k}
	coreCfg := func(col *obs.Collector) core.Config {
		return core.Config{
			K: k, Seed: sp.Seed, Imbalance: harnessImbalance,
			Nodal:    mesh.NodalGraphOptions{NCon: 2, ContactEdgeWeight: harnessEdgeWt, FEWeight: 1, ContactWeight: 1},
			Parallel: true, Obs: col,
		}
	}
	mlCfg := mlrcb.Config{K: k, Seed: sp.Seed, Imbalance: harnessImbalance}
	snaps := sc.snaps

	s := tr.begin(exp, "core.decompose")
	col := obs.New()
	d, err := core.Decompose(snaps[0].Mesh, coreCfg(col))
	tr.finish(s)
	if err != nil {
		return tab, err
	}
	deriveObs(tr, s, phaseTotals(col.Report()))
	mcByID := labelMap(snaps[0].NodeID, d.Labels)
	var baseCut int64
	if sp.Adaptive {
		baseCut = partition.EdgeCut(d.Graph, d.Labels)
	}
	s = tr.begin(exp, "mlrcb.decompose")
	st, err := mlrcb.Decompose(snaps[0].Mesh, mlCfg)
	tr.finish(s)
	if err != nil {
		return tab, err
	}
	mlByID := labelMap(snaps[0].NodeID, st.MeshLabels)

	prevRCB := map[int64]int32{}
	var imbFE, imbContact float64
	for t, sn := range snaps {
		snap := tr.begin(exp, "harness.snapshot")
		m := sn.Mesh
		if sp.Adaptive && t > 0 {
			prev := lookupLabels(sn.NodeID, mcByID)
			s := tr.begin(snap, "core.adaptive")
			col := obs.New()
			d, o, err := core.AdaptiveDecompose(m, prev, baseCut, coreCfg(col))
			tr.finish(s)
			if err != nil {
				return tab, err
			}
			deriveObs(tr, s, phaseTotals(col.Report()))
			first := partition.DriftThresholds{}.Decide(partition.DriftState{Cut: o.Cut, Imbalance: o.Imbalance}, baseCut, harnessImbalance)
			if first == partition.DriftDiffuse && o.Decision == partition.DriftFull {
				out.Escalations++
			}
			out.Rungs[o.Decision.String()]++
			out.Migrated = append(out.Migrated, int64(o.Migrated))
			baseCut = o.BaselineCut
			if d != nil {
				mcByID = labelMap(sn.NodeID, d.Labels)
			}
		}
		mcLabels := lookupLabels(sn.NodeID, mcByID)
		mlLabels := lookupLabels(sn.NodeID, mlByID)

		s := tr.begin(snap, "mesh.nodal_graph")
		g := m.NodalGraph(mesh.NodalGraphOptions{NCon: 2})
		tr.finish(s)

		var row [7]int64
		// MCML+DT leg.
		s = tr.begin(snap, "metrics.eval")
		row[0] = metrics.CommVolume(g, mcLabels, k)
		tr.finish(s)
		s = tr.begin(snap, "core.descriptor")
		col := obs.New()
		desc, _, pts, cls, err := core.DescriptorFor(m, mcLabels, coreCfg(col))
		tr.finish(s)
		if err != nil {
			return tab, err
		}
		deriveObs(tr, s, phaseTotals(col.Report()))
		row[1] = int64(desc.NumNodes())
		s = tr.begin(snap, "contact.nremote")
		row[2] = core.NRemote(m, mcLabels, desc, pts, cls, harnessSearchTol, true)
		tr.finish(s)
		s = tr.begin(snap, "metrics.eval")
		imb := metrics.LoadImbalance(g, mcLabels, k)
		tr.finish(s)
		imbFE += imb[0]
		imbContact += imb[1]

		// ML+RCB leg.
		s = tr.begin(snap, "metrics.eval")
		row[3] = metrics.CommVolume(g, mlLabels, k)
		tr.finish(s)
		if t > 0 {
			s = tr.begin(snap, "mlrcb.update")
			st.Update(m)
			tr.finish(s)
		}
		moved := int64(0)
		curRCB := make(map[int64]int32, len(st.ContactNodes))
		for i, n := range st.ContactNodes {
			id := sn.NodeID[n]
			curRCB[id] = st.ContactLabels[i]
			if prev, ok := prevRCB[id]; t > 0 && ok && prev != st.ContactLabels[i] {
				moved++
			}
		}
		prevRCB = curRCB
		row[5] = moved
		s = tr.begin(snap, "mlrcb.m2m")
		m2m, err := st.M2MComm(mlLabels)
		tr.finish(s)
		if err != nil {
			return tab, err
		}
		row[4] = int64(m2m)
		s = tr.begin(snap, "mlrcb.nremote")
		row[6] = st.NRemote(m, harnessSearchTol)
		tr.finish(s)
		tr.finish(snap)

		tab.Rows = append(tab.Rows, row)
		out.NTNodes += row[1]
	}

	n := float64(len(tab.Rows))
	var sum [7]int64
	for _, r := range tab.Rows {
		for i := range sum {
			sum[i] += r[i]
		}
	}
	for i := range sum {
		tab.Avg[i] = float64(sum[i]) / n
	}
	tab.Avg[avgMLUpdComm] = 0
	if n > 1 {
		tab.Avg[avgMLUpdComm] = float64(sum[avgMLUpdComm]) / (n - 1)
	}
	tab.Avg[avgImbFE] = imbFE / n
	tab.Avg[avgImbContact] = imbContact / n
	return tab, nil
}

func labelMap(ids []int64, labels []int32) map[int64]int32 {
	m := make(map[int64]int32, len(ids))
	for v, id := range ids {
		m[id] = labels[v]
	}
	return m
}

func lookupLabels(ids []int64, byID map[int64]int32) []int32 {
	out := make([]int32, len(ids))
	for v, id := range ids {
		out[v] = byID[id]
	}
	return out
}

// csr is a graph in the wire form partsrv accepts (nil weights = unit).
type csr struct {
	NCon   int     `json:"ncon"`
	Xadj   []int32 `json:"xadj"`
	Adj    []int32 `json:"adj"`
	AdjWgt []int32 `json:"adjwgt,omitempty"`
	VWgt   []int32 `json:"vwgt,omitempty"`
}

// nodalCSR is snapshot i's two-constraint nodal graph (the MCML+DT
// graph: FE and contact weights, contact edges weighted 5).
func nodalCSR(sc *scene, i int) csr {
	g := sc.snaps[i].Mesh.NodalGraph(mesh.NodalGraphOptions{
		NCon: 2, ContactEdgeWeight: harnessEdgeWt, FEWeight: 1, ContactWeight: 1})
	return csr{NCon: g.NCon, Xadj: g.Xadj, Adj: g.Adj, AdjWgt: g.AdjWgt, VWgt: g.VWgt}
}

// nodeIDs is snapshot i's persistent node ids.
func nodeIDs(sc *scene, i int) []int64 { return sc.snaps[i].NodeID }

// meshQuality measures a served nodal partition of snapshot i the way
// the sweeps measure MCML+DT: FE communication volume, descriptor-tree
// size and the global-search NRemote.
func meshQuality(sc *scene, i int, labels []int32, k int) (feComm, ntNodes, nRemote int64, err error) {
	sn := sc.snaps[i]
	g := sn.Mesh.NodalGraph(mesh.NodalGraphOptions{NCon: 2})
	feComm = metrics.CommVolume(g, labels, k)
	desc, _, pts, cls, err := core.DescriptorFor(sn.Mesh, labels, core.Config{K: k, Parallel: true})
	if err != nil {
		return 0, 0, 0, err
	}
	nRemote = core.NRemote(sn.Mesh, labels, desc, pts, cls, harnessSearchTol, true)
	return feComm, int64(desc.NumNodes()), nRemote, nil
}

// partsrv is an in-process partsrv daemon on a loopback port.
type partsrv struct {
	srv  *server.Server
	hs   *http.Server
	URL  string
	done chan error
}

// startPartsrv starts the job engine with the given executor count
// behind the hardened HTTP server. traceRing > 0 retains each job's
// trace for GET /api/v1/jobs/{id}/trace (the traced run only).
func startPartsrv(workers, queueDepth, traceRing int) (*partsrv, error) {
	srv := server.New(server.Options{Workers: workers, QueueDepth: queueDepth, TraceRing: traceRing})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Drain(context.Background()))
	}
	hs := server.NewHTTPServer(ln.Addr().String(), srv.Handler())
	p := &partsrv{srv: srv, hs: hs, URL: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { p.done <- hs.Serve(ln) }()
	return p, nil
}

// stop drains the job engine, shuts the HTTP server down and waits for
// its serve loop to return.
func (p *partsrv) stop(ctx context.Context) error {
	err := p.srv.Drain(ctx)
	err = errors.Join(err, p.hs.Shutdown(ctx))
	if serr := <-p.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// validateTrace checks a Chrome trace file with the library behind
// tools/tracecheck and returns the missing required span names.
func validateTrace(path string, required []string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only
	sum, err := obs.ValidateTrace(io.Reader(f))
	if err != nil {
		return nil, err
	}
	var missing []string
	for _, name := range required {
		if sum.Names[name] == 0 {
			missing = append(missing, name)
		}
	}
	return missing, nil
}
