package partition

import (
	"context"
	"runtime/pprof"
	"slices"
	"strconv"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pool"
)

// spanRBMinNV is the smallest subgraph that records an "rb_task"
// span. It is far below the parallel cutoff so traces of quick scenes
// still show the bisection tree, while the leaf flood of tiny
// subproblems stays span-free.
const spanRBMinNV = 1 << 10

// KWay computes a k-way multi-constraint partitioning of g by
// multilevel recursive bisection followed by a direct k-way
// refinement/balancing pass. The returned labels are in [0, opt.K) and
// are deterministic for a fixed Options.Seed.
//
// The two children of every bisection above the parallel cutoff run as
// independent tasks on a pool.Group worker pool; below the cutoff the
// recursion stays on the calling goroutine so small subtrees pay no
// scheduling overhead. Each subtree derives its RNG seed from its
// position in the bisection tree and writes to a disjoint range of the
// label slice, so the output is bit-identical to the strictly serial
// recursion for every worker count and cutoff. A panic in one branch
// cancels its sibling subtree's queued tasks and is returned as an
// error instead of crashing the process.
//
// Cancelling ctx (or its deadline expiring) stops the recursion
// promptly and returns the context's error. The cancellation check
// runs at every bisection node of the recursion tree, at every
// multilevel phase boundary inside a bisection (coarsening levels,
// initial-cut trials, uncoarsening levels), and before the final k-way
// polish, so the wall clock until return is bounded by a single phase
// step, not by the remaining recursion. The pool workers of an
// interrupted run drain and exit before KWay returns — no goroutines
// leak. A nil ctx is context.Background(); labels of a run that
// completes never depend on ctx.
func KWay(ctx context.Context, g *graph.Graph, opt Options) ([]int32, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	labels := make([]int32, g.NV())
	if opt.K == 1 || g.NV() == 0 {
		return labels, nil
	}

	ids := make([]int32, g.NV())
	for i := range ids {
		ids[i] = int32(i)
	}
	// Per-bisection tolerance is tighter than the final one; the k-way
	// polish restores anything recursive splitting leaves off.
	epsBis := opt.Imbalance / 2
	if epsBis < 0.015 {
		epsBis = 0.015
	}

	cutoff := parallelRBCutoff
	ws := newWorkspace(g.NV())
	if g.NV() < cutoff {
		// The whole tree is below the cutoff: plain serial recursion,
		// no workers spawned at all.
		if err := rb(ctx, nil, ws, g, ids, opt.K, 0, labels, epsBis, opt, opt.Seed, 0, cutoff); err != nil {
			return nil, err
		}
	} else {
		grp := pool.NewGroup(ctx, opt.Workers)
		serr := grp.Submit(func(ctx context.Context) error {
			return rb(ctx, grp, ws, g, ids, opt.K, 0, labels, epsBis, opt, opt.Seed, 0, cutoff)
		})
		err := grp.Wait()
		if err == nil {
			err = serr
		}
		if st := grp.Stats(); opt.Obs != nil {
			opt.Obs.Add("partition_rb_tasks", st.Tasks)
			opt.Obs.Max("partition_rb_workers_max", int64(st.MaxWorkers))
		}
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	RefineKWay(g, labels, opt)
	return labels, nil
}

// parallelRBCutoff is the subgraph size above which the two recursive
// bisection branches run as concurrent pool tasks. It is a variable
// (not a const) so tests can force the serial path on large graphs —
// or the concurrent path on small ones — and assert that both return
// identical labels.
var parallelRBCutoff = 1 << 14

// rb recursively bisects the subgraph sub (whose vertex i is original
// vertex ids[i]) into k parts labeled base..base+k-1, forking the left
// child onto grp when sub is large enough. grp == nil means strictly
// serial. Label writes of the two children are disjoint by
// construction, and each child's seed depends only on its path from
// the root, so scheduling cannot influence the result. The sides and
// both children, in turn, live in ws's slot for depth; a forked left
// child gets a graph and a workspace of its own.
func rb(ctx context.Context, grp *pool.Group, ws *workspace, sub *graph.Graph, ids []int32, k, base int, labels []int32, eps float64, opt Options, seed int64, depth, cutoff int) error {
	if err := ctx.Err(); err != nil {
		return err // a sibling branch failed; stop early
	}
	if k == 1 {
		for _, v := range ids {
			labels[v] = int32(base)
		}
		return nil
	}
	ws.rng.Seed(seed) // the stream of rand.NewSource(seed)
	kL := (k + 1) / 2
	fracL := float64(kL) / float64(k)

	// The span covers this task's own bisection work (coarsen, initial
	// cut, refine) but not the recursion: a forked left child can
	// outlive its parent's rb call, so rb_task spans are flat siblings
	// on the "rb" track rather than a nested tree.
	var span *obs.Span
	if sub.NV() >= spanRBMinNV {
		span = obs.SpanFromContext(ctx).Child("rb_task", obs.Track("rb"),
			obs.Int("depth", int64(depth)), obs.Int("k", int64(k)),
			obs.Int("base", int64(base)), obs.Int("nv", int64(sub.NV())))
	}
	var where []int8
	var bisErr error
	if sub.NV() >= cutoff {
		// Pool-task-sized subtree: label the goroutine so CPU profiles
		// break bisection time out by recursion depth.
		pprof.Do(ctx, pprof.Labels("rb_depth", strconv.Itoa(depth)), func(ctx context.Context) {
			where, bisErr = bisect(ctx, sub, fracL, eps, opt, ws, span, depth)
		})
	} else {
		where, bisErr = bisect(ctx, sub, fracL, eps, opt, ws, span, depth)
	}
	span.End()
	if bisErr != nil {
		return bisErr
	}
	for len(ws.depth) <= depth {
		ws.depth = append(ws.depth, new(rbSlot))
	}
	sl := ws.depth[depth]
	sl.where = append(sl.where[:0], where...)

	leftSeed, rightSeed := seed*1000003+1, seed*1000003+2
	if grp != nil && sub.NV() >= cutoff {
		left := new(graph.Graph)
		leftIDs := split(left, nil, sub, ids, sl.where, 0, ws)
		if err := grp.Submit(func(ctx context.Context) error {
			return rb(ctx, grp, newWorkspace(left.NV()), left, leftIDs, kL, base, labels, eps, opt, leftSeed, depth+1, cutoff)
		}); err != nil {
			return err
		}
	} else {
		sl.ids = split(&sl.child, sl.ids, sub, ids, sl.where, 0, ws)
		if err := rb(ctx, grp, ws, &sl.child, sl.ids, kL, base, labels, eps, opt, leftSeed, depth+1, cutoff); err != nil {
			return err
		}
	}
	sl.ids = split(&sl.child, sl.ids, sub, ids, sl.where, 1, ws)
	return rb(ctx, grp, ws, &sl.child, sl.ids, k-kL, base+kL, labels, eps, opt, rightSeed, depth+1, cutoff)
}

// split writes side s of sub's bisection where into dst and returns
// the side's original vertex ids in childIDs, reused when large enough.
func split(dst *graph.Graph, childIDs []int32, sub *graph.Graph, ids []int32, where []int8, s int8, ws *workspace) []int32 {
	sub.SplitInto(dst, where, s, &ws.gs)
	childIDs = slices.Grow(childIDs[:0], dst.NV())
	for v, w := range where {
		if w == s {
			childIDs = append(childIDs, ids[v])
		}
	}
	return childIDs
}
