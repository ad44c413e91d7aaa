package partition

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/obs"
)

// bisection holds the working state of a 2-way partition of a graph
// with target side fractions frac[0] + frac[1] = 1.
//
// gain[v] is always the cut reduction of moving v to the other side
// (external minus internal edge weight of v): assign and reset set it
// from scratch and move keeps it current, so reading a gain is O(1)
// instead of a rescan of v's row.
type bisection struct {
	g     *graph.Graph
	where []int8
	gain  []int64
	side  [2][]int64 // per-side, per-constraint weight
	total []int64
	frac  [2]float64
	eps   float64
	cut   int64
	nside [2]int // vertex count per side
	// slack[j] is the largest single vertex weight in constraint j:
	// no bisection can balance better than one vertex of granularity,
	// so feasibility allows the target fraction to be exceeded by
	// (1+eps) *and* one vertex. At coarse multilevel rungs vertices
	// are heavy and the slack is generous; it tightens automatically
	// as uncoarsening proceeds.
	slack []int64
}

// newBisection returns an all-side-0 bisection of g whose gain array
// has room for capNV vertices, so assign can later move it onto any
// graph of up to capNV vertices without allocating.
func newBisection(g *graph.Graph, fracLeft, eps float64, capNV int) *bisection {
	b := &bisection{
		gain:  make([]int64, 0, max(capNV, g.NV())),
		total: make([]int64, g.NCon),
		frac:  [2]float64{fracLeft, 1 - fracLeft},
		eps:   eps,
		slack: make([]int64, g.NCon),
	}
	b.side[0] = make([]int64, g.NCon)
	b.side[1] = make([]int64, g.NCon)
	b.assign(g, make([]int8, g.NV()))
	return b
}

// assign points the bisection at graph g with sides where (which it
// takes over) and recomputes totals, slack, side weights, cut and
// gains from scratch.
func (b *bisection) assign(g *graph.Graph, where []int8) {
	n := g.NV()
	b.g, b.where, b.gain = g, where, b.gain[:n]
	clear(b.total)
	clear(b.slack)
	clear(b.side[0])
	clear(b.side[1])
	b.nside = [2]int{}
	b.cut = 0
	for v := 0; v < n; v++ {
		s := where[v]
		for j, wj := range g.Weights(v) {
			b.total[j] += int64(wj)
			b.side[s][j] += int64(wj)
			if int64(wj) > b.slack[j] {
				b.slack[j] = int64(wj)
			}
		}
		b.nside[s]++
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		var ext, in int64
		for i, u := range adj {
			if where[u] == s {
				in += int64(wgt[i])
			} else {
				ext += int64(wgt[i])
				if int(u) > v {
					b.cut += int64(wgt[i])
				}
			}
		}
		b.gain[v] = ext - in
	}
}

// capOf returns the absolute feasibility cap of side s, constraint j.
func (b *bisection) capOf(s, j int) float64 {
	return (1+b.eps)*b.frac[s]*float64(b.total[j]) + float64(b.slack[j])
}

// reset puts every vertex back on side 0 with zero cut.
func (b *bisection) reset() {
	clear(b.where)
	b.assign(b.g, b.where)
}

// load returns side s's load for constraint j relative to its target
// (1.0 = exactly on target; constraints with zero total are always 1).
func (b *bisection) load(s, j int) float64 {
	if b.total[j] == 0 {
		return 1
	}
	return float64(b.side[s][j]) / (b.frac[s] * float64(b.total[j]))
}

// maxLoad returns the worst load over both sides and all constraints.
func (b *bisection) maxLoad() float64 {
	worst := 0.0
	for s := 0; s < 2; s++ {
		for j := 0; j < b.g.NCon; j++ {
			if l := b.load(s, j); l > worst {
				worst = l
			}
		}
	}
	return worst
}

// feasible reports whether the bisection satisfies every constraint
// within (1+eps) plus one vertex of granularity slack, with neither
// side empty (when the graph has at least two vertices).
func (b *bisection) feasible() bool {
	if b.g.NV() >= 2 && (b.nside[0] == 0 || b.nside[1] == 0) {
		return false
	}
	for s := 0; s < 2; s++ {
		for j := 0; j < b.g.NCon; j++ {
			if b.total[j] == 0 {
				continue
			}
			if float64(b.side[s][j]) > b.capOf(s, j) {
				return false
			}
		}
	}
	return true
}

// feasibleAfterMove reports whether moving v keeps the bisection
// within the slackified caps.
func (b *bisection) feasibleAfterMove(v int) bool {
	s := b.where[v]
	o := 1 - s
	if b.g.NV() >= 2 && b.nside[s] == 1 {
		return false // would empty side s
	}
	w := b.g.Weights(v)
	for j := 0; j < b.g.NCon; j++ {
		if b.total[j] == 0 {
			continue
		}
		if float64(b.side[o][j]+int64(w[j])) > b.capOf(int(o), j) {
			return false
		}
	}
	return true
}

// move flips v to the other side, maintaining weights, cut and gains:
// each edge to a neighbour u on v's old side becomes cut (u's gain
// rises by twice its weight), each edge to the new side stops being
// cut (u's gain falls by as much), and v's own gain changes sign.
func (b *bisection) move(v int) {
	s := b.where[v]
	o := 1 - s
	w := b.g.Weights(v)
	for j, wj := range w {
		b.side[s][j] -= int64(wj)
		b.side[o][j] += int64(wj)
	}
	b.cut -= b.gain[v]
	b.gain[v] = -b.gain[v]
	wgt := b.g.EdgeWeights(v)
	for i, u := range b.g.Neighbors(v) {
		if b.where[u] == s {
			b.gain[u] += 2 * int64(wgt[i])
		} else {
			b.gain[u] -= 2 * int64(wgt[i])
		}
	}
	b.nside[s]--
	b.nside[o]++
	b.where[v] = o
}

// overshoots reports whether moving v to side 1 would push some
// already-satisfied constraint past (1+eps) of its side-1 target;
// deficient constraints (per d) are exempt. Used by greedy growing.
func (b *bisection) overshoots(v int, d []bool) bool {
	w := b.g.Weights(v)
	for j := 0; j < b.g.NCon; j++ {
		if d[j] || b.total[j] == 0 || w[j] == 0 {
			continue
		}
		after := float64(b.side[1][j]+int64(w[j])) / (b.frac[1] * float64(b.total[j]))
		if after > 1+b.eps {
			return true
		}
	}
	return false
}

// maxLoadAfterMove returns what maxLoad would be if v moved.
func (b *bisection) maxLoadAfterMove(v int) float64 {
	s := b.where[v]
	o := 1 - s
	w := b.g.Weights(v)
	worst := 0.0
	for j := 0; j < b.g.NCon; j++ {
		if b.total[j] == 0 {
			continue
		}
		ls := float64(b.side[s][j]-int64(w[j])) / (b.frac[s] * float64(b.total[j]))
		lo := float64(b.side[o][j]+int64(w[j])) / (b.frac[o] * float64(b.total[j]))
		if ls > worst {
			worst = ls
		}
		if lo > worst {
			worst = lo
		}
	}
	if worst == 0 {
		worst = 1
	}
	return worst
}

// rbPhase starts the named multilevel phase of a bisection: an
// obs.Phase under the task's rb_task span (nil below spanRBMinNV).
func rbPhase(opt Options, span *obs.Span, name string) obs.Phase {
	return opt.Obs.Phase(span, name) //lint:ignore metricname bisect passes only the fixed rb_coarsen/rb_initcut/rb_refine names
}

// endRBPhase ends ph and records its duration again per recursion
// depth (<name>_d<depth>), so the phase profile of the recursion tree
// is visible in the observability report.
func endRBPhase(opt Options, ph obs.Phase, name string, depth int) {
	if d := ph.End(); opt.Obs != nil {
		opt.Obs.Observe(fmt.Sprintf("%s_d%d", name, depth), d) //lint:ignore metricname phase names come from the fixed phase set; depth is bounded by the recursion
	}
}

// bisect computes a multilevel 2-way partition of g with left-side
// fraction fracLeft and per-constraint tolerance eps, returning the
// side of every vertex. span and depth only feed the
// phase timers; they never influence the partition. ctx is checked at
// every multilevel phase boundary (coarsening levels, initial-cut
// trials, uncoarsening levels); a cancelled bisection returns ctx's
// error with its phases ended. The checks never alter the
// result of a run that completes.
func bisect(ctx context.Context, g *graph.Graph, fracLeft, eps float64, opt Options, rng *rand.Rand, span *obs.Span, depth int) ([]int8, error) {
	n := g.NV()
	if n == 0 {
		return nil, nil
	}
	ws := newWorkspace(n)
	ph := rbPhase(opt, span, "rb_coarsen")
	levels := coarsen(ctx, g, opt.CoarsenTo, rng, ws)
	coarsest := levels[len(levels)-1].g
	endRBPhase(opt, ph, "rb_coarsen", depth)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Initial partition at the coarsest level: several GGG trials. The
	// two side arrays of the projection ping-pong between bufs[0] and
	// bufs[1]; the best trial is kept in bufs[1].
	ph = rbPhase(opt, span, "rb_initcut")
	bufs := [2][]int8{make([]int8, n), make([]int8, n)}
	b := newBisection(coarsest, fracLeft, eps, n)
	where := bufs[1][:coarsest.NV()]
	bestScore := trialScore(b)
	for t := 0; t < opt.InitTrials; t++ {
		if err := ctx.Err(); err != nil {
			endRBPhase(opt, ph, "rb_initcut", depth)
			return nil, err
		}
		b.reset()
		growBisection(b, rng, ws)
		refineFM(b, opt.RefineIters, rng, ws)
		if s := trialScore(b); s.better(bestScore) {
			bestScore = s
			copy(where, b.where)
		}
	}
	endRBPhase(opt, ph, "rb_initcut", depth)

	// Project back through the hierarchy, refining at each level.
	ph = rbPhase(opt, span, "rb_refine")
	for li := len(levels) - 2; li >= 0; li-- {
		if err := ctx.Err(); err != nil {
			endRBPhase(opt, ph, "rb_refine", depth)
			return nil, err
		}
		lv := levels[li]
		fine := bufs[0][:lv.g.NV()]
		for v := range fine {
			fine[v] = where[lv.cmap[v]]
		}
		b.assign(lv.g, fine)
		refineFM(b, opt.RefineIters, rng, ws)
		where = fine
		bufs[0], bufs[1] = bufs[1], bufs[0]
	}
	endRBPhase(opt, ph, "rb_refine", depth)
	return where, nil
}

// trialScore ranks candidate bisections: feasibility first, then
// balance, then cut.
type score struct {
	feasible bool
	maxLoad  float64
	cut      int64
}

func trialScore(b *bisection) score {
	return score{feasible: b.feasible(), maxLoad: b.maxLoad(), cut: b.cut}
}

func (s score) better(o score) bool {
	if s.feasible != o.feasible {
		return s.feasible
	}
	if s.feasible {
		return s.cut < o.cut || (s.cut == o.cut && s.maxLoad < o.maxLoad)
	}
	return s.maxLoad < o.maxLoad
}
