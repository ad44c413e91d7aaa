package partition

import (
	"context"
	"math/rand"

	"repro/internal/graph"
)

// PartitionDirect computes a k-way multi-constraint partitioning with
// the direct multilevel k-way scheme (the kmetis counterpart of the
// recursive-bisection KWay): coarsen the whole graph once,
// partition the coarsest graph k ways by recursive bisection, then
// uncoarsen with direct k-way refinement at every level. For large k
// this does one coarsening instead of k-1 and refines against all
// parts at once; quality is comparable to KWay and wall-clock is
// lower at high k. Cancelling ctx stops the coarsening and the initial
// partition and returns the context's error.
func PartitionDirect(ctx context.Context, g *graph.Graph, opt Options) ([]int32, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	labels := make([]int32, g.NV())
	if opt.K == 1 || g.NV() == 0 {
		return labels, nil
	}

	// Coarsen until ~coarsenPerPart vertices per partition remain; the
	// coarsest graph must still have enough vertices to seed k parts.
	const coarsenPerPart = 30
	target := maxInt(opt.CoarsenTo, coarsenPerPart*opt.K)
	rng := rand.New(rand.NewSource(opt.Seed))
	levels := coarsen(ctx, g, target, rng)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Initial k-way partition of the coarsest graph by recursive
	// bisection (cheap: the coarsest graph is small).
	coarsest := levels[len(levels)-1].g
	init, err := KWay(ctx, coarsest, Options{
		K:           opt.K,
		Imbalance:   opt.Imbalance,
		Seed:        opt.Seed + 1,
		CoarsenTo:   opt.CoarsenTo,
		InitTrials:  opt.InitTrials,
		RefineIters: opt.RefineIters,
	})
	if err != nil {
		return nil, err
	}

	// Uncoarsen, refining k-way at each level.
	cur := init
	for li := len(levels) - 2; li >= 0; li-- {
		lv := levels[li]
		fine := make([]int32, lv.g.NV())
		for v := range fine {
			fine[v] = cur[lv.cmap[v]]
		}
		RefineKWay(lv.g, fine, Options{
			K:           opt.K,
			Imbalance:   opt.Imbalance,
			Seed:        opt.Seed + int64(li) + 2,
			RefineIters: opt.RefineIters,
		})
		cur = fine
	}
	copy(labels, cur)
	return labels, nil
}
