// Package backend defines the Partitioner interface — the seam between
// the decomposition pipeline (core, harness, CLIs) and the concrete
// partitioning algorithms — and registers the four implementations:
//
//	multilevel  the multilevel multi-constraint k-way partitioner
//	            (internal/partition), the paper's step 2 and the only
//	            backend that supports warm-started repartitioning;
//	rcb         multi-constraint recursive coordinate bisection
//	            (internal/rcb), the geometric baseline of the paper's
//	            conclusions;
//	sfc         Hilbert space-filling-curve splitting (internal/sfc),
//	            the near-linear-time geometric fast path;
//	bkmeans     balanced k-means (internal/bkmeans), compact geometric
//	            clusters under a primary-weight capacity constraint.
//
// Capability flags (Caps) tell callers what each backend can honor, so
// the pipeline gates reshaping and warm-starting on capabilities
// instead of on backend identity.
package backend

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bkmeans"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/rcb"
	"repro/internal/sfc"
)

// Input carries everything a backend may consume: the weighted nodal
// graph (always present) and, for geometric backends, the node
// coordinates. len(Coords) == Graph.NV() whenever Coords is non-nil.
type Input struct {
	Graph  *graph.Graph
	Coords []geom.Point
	Dim    int
}

// Options are the backend-independent partitioning knobs. Backends
// ignore what they cannot use (e.g. rcb has no randomized phase, so
// Seed is a no-op there).
type Options struct {
	K         int
	Seed      int64
	Imbalance float64
	// Workers bounds worker pools in backends that parallelize (<= 0 =
	// GOMAXPROCS). Labels never depend on it.
	Workers int
	Obs     *obs.Collector
	Span    *obs.Span
	// Ctx, when non-nil, carries a per-call deadline/cancellation into
	// the backend: the multilevel partitioner stops its recursion
	// promptly and returns the context's error (partition.KWay); the
	// near-linear geometric backends check it once at entry. Labels of
	// a run that completes never depend on Ctx. Nil means
	// context.Background() (never cancelled).
	Ctx context.Context
}

// ctx resolves the options' context, nil meaning Background.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	//lint:ignore ctxflow nil Ctx means the caller opted out of cancellation; this is the documented default
	return context.Background()
}

// Caps describes what a backend supports. Callers branch on these
// flags, never on the backend's name.
type Caps struct {
	// MultiConstraint: all vertex-weight components are balanced (sfc
	// honors them best-effort along the curve; bkmeans balances only
	// component 0 and reports false).
	MultiConstraint bool
	// NeedsCoords: Input.Coords must be non-nil.
	NeedsCoords bool
	// Reshape: the labels benefit from the tree-guided reshape steps
	// (3-4). Geometric backends produce box-like subdomains already, so
	// reshaping is skipped for them.
	Reshape bool
	// Warmstart: the backend supports drift-graded warm-started
	// repartitioning (core.AdaptiveDecompose).
	Warmstart bool
}

// Partitioner is one partitioning algorithm behind a uniform seam:
// labels and weights in, one label per graph vertex out.
type Partitioner interface {
	Name() string
	Caps() Caps
	Partition(in Input, opt Options) ([]int32, error)
}

// registry maps backend names to implementations. "" is an alias for
// "multilevel" so zero-value configs keep the paper's default pipeline.
var registry = map[string]Partitioner{
	"multilevel": multilevel{},
	"rcb":        rcbBackend{},
	"sfc":        sfcBackend{},
	"bkmeans":    bkmeansBackend{},
}

// Lookup resolves a backend name ("" = multilevel). Unknown names list
// the valid ones in the error.
func Lookup(name string) (Partitioner, error) {
	if name == "" {
		name = "multilevel"
	}
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("backend: unknown partitioner %q (valid: %v)", name, Names())
	}
	return p, nil
}

// Names returns the registered backend names in a fixed sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkInput validates the parts of Input every backend needs, plus
// coordinates when the backend requires them, and refuses to start
// work under an already-dead context.
func checkInput(in Input, caps Caps, name string, opt Options) error {
	if err := opt.ctx().Err(); err != nil {
		return err
	}
	if in.Graph == nil {
		return fmt.Errorf("backend/%s: nil graph", name)
	}
	if caps.NeedsCoords {
		if in.Coords == nil {
			return fmt.Errorf("backend/%s: geometric backend needs coordinates", name)
		}
		if len(in.Coords) != in.Graph.NV() {
			return fmt.Errorf("backend/%s: %d coords for %d vertices", name, len(in.Coords), in.Graph.NV())
		}
	}
	return nil
}

type multilevel struct{}

func (multilevel) Name() string { return "multilevel" }
func (multilevel) Caps() Caps {
	return Caps{MultiConstraint: true, Reshape: true, Warmstart: true}
}
func (b multilevel) Partition(in Input, opt Options) ([]int32, error) {
	if err := checkInput(in, b.Caps(), b.Name(), opt); err != nil {
		return nil, err
	}
	return partition.KWay(obs.ContextWithSpan(opt.ctx(), opt.Span), in.Graph, partition.Options{
		K: opt.K, Seed: opt.Seed, Imbalance: opt.Imbalance,
		Workers: opt.Workers, Obs: opt.Obs,
	})
}

type rcbBackend struct{}

func (rcbBackend) Name() string { return "rcb" }
func (rcbBackend) Caps() Caps {
	return Caps{MultiConstraint: true, NeedsCoords: true}
}
func (b rcbBackend) Partition(in Input, opt Options) ([]int32, error) {
	if err := checkInput(in, b.Caps(), b.Name(), opt); err != nil {
		return nil, err
	}
	_, labels, err := rcb.BuildMC(in.Coords, in.Graph.VWgt, in.Graph.NCon, in.Dim, opt.K)
	return labels, err
}

type sfcBackend struct{}

func (sfcBackend) Name() string { return "sfc" }
func (sfcBackend) Caps() Caps {
	// MultiConstraint is best-effort: the curve split minimizes the
	// worst per-constraint deviation reachable by contiguous segments.
	return Caps{MultiConstraint: true, NeedsCoords: true}
}
func (b sfcBackend) Partition(in Input, opt Options) ([]int32, error) {
	if err := checkInput(in, b.Caps(), b.Name(), opt); err != nil {
		return nil, err
	}
	return sfc.Partition(in.Coords, in.Graph.VWgt, in.Graph.NCon, in.Dim, opt.K, sfc.Options{
		Workers: opt.Workers, Obs: opt.Obs, Span: opt.Span,
	})
}

type bkmeansBackend struct{}

func (bkmeansBackend) Name() string { return "bkmeans" }
func (bkmeansBackend) Caps() Caps {
	return Caps{NeedsCoords: true}
}
func (b bkmeansBackend) Partition(in Input, opt Options) ([]int32, error) {
	if err := checkInput(in, b.Caps(), b.Name(), opt); err != nil {
		return nil, err
	}
	return bkmeans.Partition(in.Coords, in.Graph.VWgt, in.Graph.NCon, in.Dim, opt.K, bkmeans.Options{
		Seed: opt.Seed, Imbalance: opt.Imbalance,
		Workers: opt.Workers, Obs: opt.Obs, Span: opt.Span,
	})
}
