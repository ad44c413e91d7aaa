// Package core implements the paper's contribution, the MCML+DT
// decomposition pipeline of Section 4:
//
//  1. model the mesh as a nodal graph with two vertex weights (FE phase,
//     contact-search phase) and boosted weights on contact-contact edges;
//  2. compute a multilevel multi-constraint k-way partitioning P;
//  3. induce a decision tree over *all* mesh nodes (Guidance mode with
//     the max_p/max_i thresholds) and reassign every leaf's nodes to the
//     leaf's majority partition, yielding P' whose subdomain boundaries
//     are piecewise axis-parallel;
//  4. collapse the tree leaves into the region graph G' and run
//     multi-constraint k-way refinement on it to restore the balance
//     that the reassignment broke, yielding P”;
//  5. induce the contact-point decision tree (Descriptor mode) on P”
//     — the geometric subdomain descriptors used by global search.
//
// Between time steps the partition is kept and only step 5 re-runs
// (the paper's default update strategy); hybrid updates re-decompose
// every R steps. DecomposeGraph is the one pipeline entry point, on a
// nodal graph the caller built once for the snapshot: it partitions
// from scratch, lets the drift policy pick keep, diffusion repair or a
// full partition, or forces the diffusion rung; a repair that leaves
// the imbalance above Drift.FullImbalance escalates to a full
// partition. Decompose and AdaptiveDecompose build the graph and call
// it.
package core

import (
	"fmt"
	"math"

	"repro/internal/backend"
	"repro/internal/contact"
	"repro/internal/dtree"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Config parameterizes Decompose.
type Config struct {
	// K is the number of partitions; Seed drives every randomized
	// phase deterministically.
	K    int
	Seed int64
	// Imbalance is the per-constraint tolerance epsilon (default 0.05).
	Imbalance float64
	// Nodal configures the two-constraint graph; zero value means
	// mesh.DefaultNodalOptions() (unit weights, contact edge weight 5).
	Nodal mesh.NodalGraphOptions
	// MaxPure/MaxImpure are the guidance-tree thresholds (max_p, max_i
	// of Section 4.2). Zero selects the geometric midpoint of the
	// paper's recommended ranges: max_p = n/k^1.25, max_i = n/k^2.25.
	MaxPure   int
	MaxImpure int
	// SkipReshape disables steps 3-4 (tree-guided reassignment and G'
	// refinement), leaving the raw multi-constraint partition — the
	// ablation showing why decision-tree-friendly boundaries matter.
	SkipReshape bool
	// Backend selects the partitioning algorithm for step 2 (see
	// internal/backend): "" or "multilevel" is the paper's multilevel
	// multi-constraint partitioner; "rcb", "sfc", and "bkmeans" are the
	// geometric alternatives from the paper's conclusions. Geometric
	// backends produce box-like subdomains by construction, so the
	// reshape steps 3-4 are skipped for them (gated on the backend's
	// Reshape capability, not its name); their edge cut and
	// communication volume are worse than the multilevel partitioner's,
	// and only the multilevel one balances the contact constraint
	// (TestClaimContactBalanceCrossover).
	Backend string
	// Parallel enables concurrent tree induction.
	Parallel bool
	// WideGaps selects margin-aware hyperplanes in the descriptor tree
	// (dtree.Options.PreferWideGaps) — the tree-induction improvement
	// of the paper's future-work section.
	WideGaps bool
	// Drift tunes the warm-start policy of the DriftPolicy mode (zero
	// value selects the partition.DriftThresholds defaults).
	// ForceDiffuse reads only FullImbalance, the escalation bound of its
	// diffusion repair; FromScratch ignores it.
	Drift partition.DriftThresholds
	// Obs, when non-nil, receives per-phase wall-clock timings
	// ("partition", "tree_induction", "drift_eval") for every pipeline
	// run.
	Obs *obs.Collector
	// Span, when non-nil, is the parent trace span: every phase timed
	// into Obs records a same-named child span under it, and the
	// partitioner's bisection tasks record "rb_task" spans on the "rb"
	// track. Nil disables tracing at zero cost.
	Span *obs.Span
}

func (c Config) withDefaults(n int) Config {
	if c.Imbalance <= 0 {
		c.Imbalance = 0.05
	}
	c.Nodal = c.nodal()
	if c.MaxPure == 0 {
		c.MaxPure = autoThreshold(n, c.K, 1.25)
	}
	if c.MaxImpure == 0 {
		c.MaxImpure = autoThreshold(n, c.K, 2.25)
	}
	if c.MaxPure < 4 {
		c.MaxPure = 4
	}
	if c.MaxImpure < 2 {
		c.MaxImpure = 2
	}
	return c
}

// nodal returns the options of the nodal graph the pipeline runs on.
func (c Config) nodal() mesh.NodalGraphOptions {
	if c.Nodal.NCon == 0 {
		return mesh.DefaultNodalOptions()
	}
	return c.Nodal
}

// autoThreshold returns n / k^exp, the geometric midpoint of the
// paper's recommended [n/k^(exp+0.25), n/k^(exp-0.25)] ranges.
func autoThreshold(n, k int, exp float64) int {
	return int(float64(n) / math.Pow(float64(k), exp))
}

// Decomposition is the output of the MCML+DT pipeline.
type Decomposition struct {
	Cfg Config
	// Graph is the two-constraint nodal graph the decomposition ran
	// on, the caller's own when it came through DecomposeGraph. A
	// graph from mesh.NodalGraphFrom lives in its NodalWorkspace and
	// is valid only until the workspace's second later derivation, so
	// such a Decomposition must not outlive that.
	Graph *graph.Graph
	// Labels is P'': the final nodal partition.
	Labels []int32
	// RawLabels is P, the partition before tree-guided reshaping.
	RawLabels []int32
	// GuideTree is the full-node guidance tree (nil when SkipReshape).
	GuideTree *dtree.Tree
	// Descriptor is the contact-point decision tree used by global
	// search, with ContactLabels the labels it was induced on and
	// ContactNodes the mesh node ids of its points.
	Descriptor    *dtree.Tree
	ContactNodes  []int32
	ContactPoints []geom.Point
	ContactLabels []int32
}

// Decompose runs the full MCML+DT pipeline on a mesh, building its
// nodal graph under cfg.Nodal.
func Decompose(m *mesh.Mesh, cfg Config) (*Decomposition, error) {
	d, _, err := DecomposeGraph(m, m.NodalGraph(cfg.nodal()), nil, 0, cfg, FromScratch)
	return d, err
}

// AdaptiveOutcome reports what the update rung did for one snapshot.
type AdaptiveOutcome struct {
	// Decision is the ladder rung that actually ran (a diffuse that
	// failed to repair the decay escalates and reports DriftFull).
	Decision partition.DriftDecision
	// Migrated counts nodes whose final label differs from prevLabels
	// (0 for a keep) — the Section 2 repartitioning objective.
	Migrated int
	// Cut and Imbalance are the inherited labels' measured quality on
	// the updated mesh, before any repair.
	Cut       int64
	Imbalance float64
	// BaselineCut is the caller's drift baseline for the next
	// snapshot: unchanged on keep (so slow decay keeps accumulating
	// against the last repair, not against yesterday's slightly worse
	// cut), refreshed to the repaired partition's cut otherwise.
	BaselineCut int64
}

// AdaptiveDecompose is the warm-started per-snapshot update of
// Section 4.3 on m's nodal graph under cfg.Nodal: DecomposeGraph in
// the DriftPolicy mode.
func AdaptiveDecompose(m *mesh.Mesh, prevLabels []int32, baseCut int64, cfg Config) (*Decomposition, AdaptiveOutcome, error) {
	return DecomposeGraph(m, m.NodalGraph(cfg.nodal()), prevLabels, baseCut, cfg, DriftPolicy)
}

// Mode selects what DecomposeGraph does with the previous labels.
type Mode int

const (
	// FromScratch partitions with the configured backend and reads
	// the previous labels, if any, only to count the migration.
	FromScratch Mode = iota
	// DriftPolicy grades the previous labels with the drift policy
	// (partition.DriftThresholds) and keeps them, repairs them by
	// diffusion, or partitions from scratch.
	DriftPolicy
	// ForceDiffuse repairs the previous labels by diffusion whatever
	// their drift: the multi-constraint repartitioning update of
	// Section 4.3 ("the updated multi-constraint partitioning will be
	// computed using a multi-constraint repartitioning algorithm
	// [32]").
	ForceDiffuse
)

// DecomposeGraph runs the MCML+DT pipeline on m with g, m's nodal
// graph under cfg.Nodal (mesh.DefaultNodalOptions when zero). g may
// come from m.NodalGraph or from a mesh.NodalGraphFrom derivation,
// which equals it; the Decomposition keeps g as its Graph (see there
// for how long a derived one stays valid).
//
// prevLabels maps every node of m to its previous partition (callers
// carry labels across snapshots via persistent node ids); it may be
// nil only in the FromScratch mode. The warm-started modes need a backend that
// declares Caps().Warmstart. On the DriftPolicy keep rung the
// Decomposition is nil: the caller reuses its current one and only
// refreshes descriptors. A diffusion repair that leaves the imbalance
// above Drift.FullImbalance escalates to a full partition, since
// local moves cannot always fix a labeling that has degraded
// structurally. baseCut is the edge cut measured right after the last
// repair (the initial partition's cut for snapshot 1); carry the
// returned BaselineCut forward. Deterministic: equal inputs give equal
// outputs for any worker count.
func DecomposeGraph(m *mesh.Mesh, g *graph.Graph, prevLabels []int32, baseCut int64, cfg Config, mode Mode) (*Decomposition, AdaptiveOutcome, error) {
	out := AdaptiveOutcome{Decision: partition.DriftFull}
	if cfg.K < 1 {
		return nil, out, fmt.Errorf("core: K = %d", cfg.K)
	}
	if (prevLabels != nil || mode != FromScratch) && len(prevLabels) != m.NumNodes() {
		return nil, out, fmt.Errorf("core: %d previous labels for %d nodes", len(prevLabels), m.NumNodes())
	}
	be, err := backend.Lookup(cfg.Backend)
	if err != nil {
		return nil, out, err
	}
	// Only the multilevel backend implements the diffusion
	// repartitioner the repair rung runs.
	if mode != FromScratch && !be.Caps().Warmstart {
		return nil, out, fmt.Errorf("core: a warm-started update requires a warm-start-capable backend, %q is not (Caps().Warmstart=false)", be.Name())
	}
	cfg = cfg.withDefaults(m.NumNodes())

	attr := obs.Str("backend", be.Name())
	if mode != FromScratch {
		ph := cfg.Obs.Phase(cfg.Span, "drift_eval")
		cur := partition.MeasureDrift(g, prevLabels, cfg.K)
		out.Cut, out.Imbalance = cur.Cut, cur.Imbalance
		out.Decision = partition.DriftDiffuse
		if mode == DriftPolicy {
			out.Decision = cfg.Drift.Decide(cur, baseCut, cfg.Imbalance)
		}
		ph.End()
		if out.Decision == partition.DriftKeep {
			out.BaselineCut = baseCut
			return nil, out, nil
		}
		attr = obs.Str("mode", out.Decision.String())
	}

	// Step 2 computes P: the diffusion repair of the previous labels,
	// or a partition by the backend.
	popt := partition.Options{K: cfg.K, Seed: cfg.Seed, Imbalance: cfg.Imbalance, Obs: cfg.Obs}
	ph := cfg.Obs.Phase(cfg.Span, "partition", obs.Int("k", int64(cfg.K)), obs.Int("nv", int64(g.NV())), attr)
	var labels []int32
	if out.Decision == partition.DriftDiffuse {
		labels = append([]int32(nil), prevLabels...)
		err = partition.Repartition(g, labels, popt)
		if th := cfg.Drift.WithDefaults(cfg.Imbalance); err == nil && partition.MeasureDrift(g, labels, cfg.K).Imbalance > th.FullImbalance {
			out.Decision = partition.DriftFull
		}
	}
	if err == nil && out.Decision == partition.DriftFull {
		labels, err = be.Partition(
			backend.Input{Graph: g, Coords: m.Coords, Dim: m.Dim},
			backend.Options{K: cfg.K, Seed: cfg.Seed, Imbalance: cfg.Imbalance, Obs: cfg.Obs, Span: cfg.Span})
	}
	ph.End()
	if err != nil {
		return nil, out, err
	}

	d := &Decomposition{
		Cfg:       cfg,
		Graph:     g,
		RawLabels: append([]int32(nil), labels...),
		Labels:    labels,
	}
	// Steps 3-4 turn P into P'' when the backend benefits; step 5
	// induces the contact-point descriptor.
	if !cfg.SkipReshape && be.Caps().Reshape && cfg.K > 1 {
		if err := d.reshape(m, popt); err != nil {
			return nil, out, err
		}
	}
	if d.Descriptor, d.ContactNodes, d.ContactPoints, d.ContactLabels, err = DescriptorFor(m, d.Labels, cfg); err != nil {
		return nil, out, err
	}
	if prevLabels != nil {
		out.Migrated = len(prevLabels) - partition.Overlap(prevLabels, d.Labels)
	}
	out.BaselineCut = partition.EdgeCut(g, d.Labels)
	return d, out, nil
}

// reshape performs steps 3-4: guidance tree, majority reassignment,
// and G' refinement.
func (d *Decomposition) reshape(m *mesh.Mesh, popt partition.Options) error {
	cfg := d.Cfg
	ph := cfg.Obs.Phase(cfg.Span, "tree_induction", obs.Str("mode", "guidance"))
	gt, err := dtree.Build(m.Coords, d.Labels, m.Dim, cfg.K, dtree.Options{
		Mode:      dtree.Guidance,
		MaxPure:   cfg.MaxPure,
		MaxImpure: cfg.MaxImpure,
		Parallel:  cfg.Parallel,
	})
	ph.End()
	if err != nil {
		return err
	}
	d.GuideTree = gt

	// Dense leaf numbering, majority label per leaf.
	leafGroup := make([]int32, len(gt.Nodes))
	for i := range leafGroup {
		leafGroup[i] = -1
	}
	var groupPart []int32
	for i := range gt.Nodes {
		if gt.Nodes[i].IsLeaf() {
			leafGroup[i] = int32(len(groupPart))
			groupPart = append(groupPart, gt.Nodes[i].Part)
		}
	}

	// P': every node takes its leaf's majority partition. Build the
	// region graph G' at the same time.
	group := make([]int32, m.NumNodes())
	for v := range group {
		group[v] = leafGroup[gt.LeafOf[v]]
		d.Labels[v] = groupPart[group[v]]
	}
	gq := d.Graph.Collapse(group, len(groupPart))

	// Multi-constraint k-way refinement on G' restores balance while
	// moving whole box-shaped regions, so P'' keeps axis-parallel
	// boundaries.
	partition.RefineKWay(gq, groupPart, popt)
	for v := range group {
		d.Labels[v] = groupPart[group[v]]
	}
	return nil
}

// DescriptorFor induces the contact-point descriptor tree for a mesh
// under the given nodal partition labels. This is the cheap per-step
// update of Section 4.3: the partition stays, the tree is rebuilt for
// the new contact-point positions.
func DescriptorFor(m *mesh.Mesh, labels []int32, cfg Config) (*dtree.Tree, []int32, []geom.Point, []int32, error) {
	return Descriptor(m, labels, cfg, nil, nil)
}

// Descriptor is DescriptorFor with the tree's presort carried across
// the snapshots of one sequence in c, keyed by the persistent node ids
// ids (one per node of m). A nil c sorts afresh. The tree is the same
// either way.
func Descriptor(m *mesh.Mesh, labels []int32, cfg Config, c *dtree.Carry, ids []int64) (*dtree.Tree, []int32, []geom.Point, []int32, error) {
	nodes := m.ContactNodes()
	pts := make([]geom.Point, len(nodes))
	cl := make([]int32, len(nodes))
	for i, n := range nodes {
		pts[i] = m.Coords[n]
		cl[i] = labels[n]
	}
	k := cfg.K
	if k < 1 {
		k = 1
	}
	ph := cfg.Obs.Phase(cfg.Span, "tree_induction", obs.Str("mode", "descriptor"))
	var order [3][]int32
	if c == nil {
		order = dtree.Presort(pts, m.Dim)
	} else {
		keys := make([]int64, len(nodes))
		for i, n := range nodes {
			keys[i] = ids[n]
		}
		order = c.Orders(pts, keys, m.Dim)
	}
	tree, err := dtree.BuildSorted(pts, cl, m.Dim, k, dtree.Options{
		Mode:           dtree.Descriptor,
		Parallel:       cfg.Parallel,
		PreferWideGaps: cfg.WideGaps,
	}, order)
	ph.End()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return tree, nodes, pts, cl, nil
}

// Stats summarizes a decomposition for reporting.
type Stats struct {
	FEComm      int64
	EdgeCut     int64
	NTNodes     int
	TreeHeight  int
	Imbalance   []float64
	NumContacts int
}

// Stats computes the decomposition's headline numbers against its own
// graph.
func (d *Decomposition) Stats() Stats {
	return Stats{
		FEComm:      metrics.CommVolume(d.Graph, d.Labels, d.Cfg.K),
		EdgeCut:     partition.EdgeCut(d.Graph, d.Labels),
		NTNodes:     d.Descriptor.NumNodes(),
		TreeHeight:  d.Descriptor.Height(),
		Imbalance:   metrics.LoadImbalance(d.Graph, d.Labels, d.Cfg.K),
		NumContacts: len(d.ContactNodes),
	}
}

// NRemote runs the global search for mesh m with this decomposition's
// descriptor tree and returns the paper's NRemote metric. tol inflates
// every surface element's bounding box (the proximity tolerance).
func (d *Decomposition) NRemote(m *mesh.Mesh, tol float64) int64 {
	return NRemote(m, d.Labels, d.Descriptor, d.ContactPoints, d.ContactLabels, tol, true)
}

// NRemote computes the MCML+DT global-search volume for any mesh,
// labels, and descriptor tree combination. tight clips each leaf
// region to its points' bounding box (the production setting); pass
// false to measure the raw space-partition filter (ablation).
func NRemote(m *mesh.Mesh, labels []int32, desc *dtree.Tree, contactPts []geom.Point, contactLabels []int32, tol float64, tight bool) int64 {
	return NRemoteBoxes(m, labels, desc, contactPts, contactLabels, contact.SurfaceBoxes(m, tol), tight)
}

// NRemoteBoxes is NRemote over the query boxes
// contact.SurfaceBoxes(m, tol).
func NRemoteBoxes(m *mesh.Mesh, labels []int32, desc *dtree.Tree, contactPts []geom.Point, contactLabels []int32, boxes []geom.AABB, tight bool) int64 {
	owners := contact.SurfaceOwners(m, labels)
	f := &contact.TreeFilter{Tree: desc, Labels: contactLabels}
	if tight {
		f.TightBoxes = desc.PointBoxes(contactPts)
	}
	return contact.NRemote(boxes, owners, f)
}
