// Package partition implements the multilevel multi-constraint graph
// partitioner that MCML+DT builds on (the METIS/ParMETIS algorithm
// family of Karypis & Kumar): heavy-edge-matching coarsening, greedy
// graph-growing multi-constraint initial bisection, Fiduccia–Mattheyses
// boundary refinement with vector balance constraints, k-way
// partitioning by recursive bisection, and a direct multi-constraint
// k-way refinement/balancing pass used both as a final polish and to
// refine partitions of the collapsed region graph G' (Section 4.2).
//
// Vertices carry a vector of NCon weights; a k-way partitioning is
// balanced when for every weight component j,
//
//	max_i w_j(V_i) <= (1+eps) * w_j(V)/k.
package partition

import (
	"fmt"

	"repro/internal/obs"
)

// The multilevel scheme's fixed parameters.
const (
	// coarsenTo stops multilevel coarsening once the graph has at most
	// this many vertices.
	coarsenTo = 80
	// initTrials is the number of greedy-graph-growing initial
	// bisections tried at the coarsest level.
	initTrials = 8
	// refineIters bounds the FM passes per uncoarsening level and the
	// k-way refinement passes of RefineKWay and Repartition.
	refineIters = 8
)

// Options configures KWay, RefineKWay and Repartition.
type Options struct {
	// K is the number of partitions.
	K int
	// Imbalance is the allowed per-constraint load imbalance epsilon
	// (0.05 = 5%). Values below 0.01 are clamped to 0.01.
	Imbalance float64
	// Seed makes runs deterministic; equal seeds give equal partitions.
	Seed int64
	// Workers bounds the worker pool the recursive-bisection tree runs
	// on (0 = GOMAXPROCS). The labels are bit-identical for every
	// worker count: parallelism is only across independent subtrees,
	// each seeded by its position in the tree, never inside FM.
	Workers int
	// Obs, when non-nil, receives per-phase wall-clock timings of the
	// multilevel bisections (rb_coarsen, rb_initcut, rb_refine — each
	// also broken out per recursion depth as <name>_d<depth>), the FM
	// counters partition_fm_moves and partition_fm_undone (moves made,
	// and those rolled back to each pass's best prefix), the
	// scheduling counter partition_rb_tasks and the worker-occupancy
	// gauge partition_rb_workers_max. When the ctx passed to KWay
	// carries a trace span, every bisection task over spanRBMinNV
	// vertices records a flat "rb_task" span on the "rb" track with
	// its depth, k, base label, and subgraph size, and its phases nest
	// beneath it. Timings and spans are observational only; they never
	// affect the computed partition.
	Obs *obs.Collector
}

// withDefaults returns opt with Imbalance clamped to at least 0.01.
func (opt Options) withDefaults() Options {
	if opt.Imbalance < 0.01 {
		opt.Imbalance = 0.01
	}
	return opt
}

func (opt Options) validate() error {
	if opt.K < 1 {
		return fmt.Errorf("partition: K = %d, want >= 1", opt.K)
	}
	return nil
}
