package partition

import (
	"math/rand"

	"repro/internal/graph"
)

// refineFM runs up to iters passes of Fiduccia–Mattheyses boundary
// refinement with multi-constraint balance on the bisection: each pass
// tentatively moves vertices in best-gain-first order (negative-gain
// moves allowed for hill climbing, up to fmTail(n) in a row), then
// rolls back to the best prefix seen. Moves are admitted only if they
// keep maxLoad within (1+eps) or strictly improve it, so the pass
// doubles as a balancer when the projected partition is overweight.
func refineFM(b *bisection, iters int, rng *rand.Rand, ws *workspace) {
	for it := 0; it < iters; it++ {
		if !fmPass(b, rng, ws) {
			return
		}
	}
}

// gainItem is a heap entry; stale entries (key != current gain) are
// re-pushed on pop.
type gainItem struct {
	v    int32
	gain int64
}

// gainHeap is a binary max-heap on gain. push and pop sift exactly as
// container/heap does (same comparisons, same swaps), so entries with
// equal gains leave in the same order they would through the generic
// heap, and partitions do not depend on which of the two is used.
type gainHeap []gainItem

func (h *gainHeap) push(it gainItem) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || s[j].gain <= s[i].gain {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *gainHeap) pop() gainItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].gain > s[j].gain {
			j = j2
		}
		if s[j].gain <= s[i].gain {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// workspace is the scratch of one serial chain of rb calls on one
// goroutine, sized for the chain's first (largest) subgraph and reused
// by every bisection, coarsening level, initial-cut trial and FM pass
// of the chain. A subtree forked onto the pool gets its own.
type workspace struct {
	heap  gainHeap
	trail []int32 // vertices moved in the current pass, in order
	// A vertex is in the heap when inHeap[v] == epoch and has moved in
	// this pass when moved[v] == epoch; bumping epoch clears both.
	inHeap, moved []uint32
	epoch         uint32
	perm          []int
	match         []int32 // heavyEdgeMatch output
	// Greedy-growing scratch (growBisection).
	frontier   []int32
	inFrontier []bool
	deficient  []bool

	rng    *rand.Rand // reseeded at every bisection node
	gain   []int64    // bisection.gain
	across []int32    // bisection.across
	sides  [2][]int8  // bisect's projection ping-pong buffers
	levels []level    // coarsen's ladder; levels[i>0].g are owned
	gs     graph.Scratch
	depth  []*rbSlot // rb's state per recursion depth
	// FM moves made and rolled back since bisect last reported them
	// (partition_fm_moves, partition_fm_undone).
	fmMoves, fmUndone int64
}

// rbSlot is rb's state at one depth: its bisection's sides, and the
// child graph (and its vertices' original ids) split from them.
type rbSlot struct {
	where []int8
	child graph.Graph
	ids   []int32
}

func newWorkspace(n int) *workspace {
	return &workspace{
		heap:   make(gainHeap, 0, 256),
		inHeap: make([]uint32, n),
		moved:  make([]uint32, n),
		perm:   make([]int, n),
		match:  make([]int32, n),
		rng:    rand.New(rand.NewSource(0)),
		gain:   make([]int64, n),
		across: make([]int32, n),
		sides:  [2][]int8{make([]int8, n), make([]int8, n)},
		levels: make([]level, 1),
	}
}

// nextEpoch starts a pass: every vertex is unmarked afterwards.
func (ws *workspace) nextEpoch() {
	ws.epoch++
	if ws.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(ws.inHeap)
		clear(ws.moved)
		ws.epoch = 1
	}
}

// permute returns a random permutation of [0, len(m)) in m. It draws
// exactly what rng.Perm(len(m)) draws, in the same order, and returns
// the same permutation, so the RNG stream is unchanged.
func permute(rng *rand.Rand, m []int) []int {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// fmTail bounds the hill-climbing tail of an FM pass on an n-vertex
// graph: the pass stops after this many moves in a row that do not
// beat its best prefix, which it then rolls back to. The bound scales
// with the level being refined, as in METIS's FM_Mc2WayCutRefine
// (min(max(0.01·n, 25), 150)), here capped at 120: on the coarsest
// graphs and in the initial-cut trials a fixed 120-move tail is longer
// than the graph, so each pass would move every vertex and then undo
// those moves. Graphs of 12,000 or more vertices keep the full 120.
func fmTail(n int) int {
	return min(max(n/100, 25), 120)
}

// fmPass runs one pass and reports whether it kept any move: it keeps
// the best prefix of its moves by trialScore, or none when no prefix
// beats the bisection it started from.
func fmPass(b *bisection, rng *rand.Rand, ws *workspace) bool {
	n := b.g.NV()
	ws.nextEpoch()
	epoch, inHeap, moved := ws.epoch, ws.inHeap, ws.moved
	h := ws.heap[:0]

	push := func(v int) {
		if moved[v] != epoch && inHeap[v] != epoch {
			inHeap[v] = epoch
			h.push(gainItem{v: int32(v), gain: b.gain[v]})
		}
	}

	// Seed with the boundary vertices (random order for tie diversity):
	// those with a neighbour on the other side, which move keeps
	// counted, so no pass rescans the rows.
	for _, v := range permute(rng, ws.perm[:n]) {
		if b.across[v] > 0 {
			push(v)
		}
	}
	if !b.feasible() {
		// An infeasible bisection may have every misplaced vertex in
		// the interior (e.g. one side holding a whole weight class),
		// where boundary seeding never reaches it. Seed everything so
		// balance-restoring moves are reachable.
		for v := 0; v < n; v++ {
			push(v)
		}
	}

	trail := ws.trail[:0]
	bestAt := 0
	bestScore := trialScore(b)
	bad, tail := 0, fmTail(n)

	for len(h) > 0 && bad < tail {
		it := h.pop()
		v := int(it.v)
		inHeap[v] = 0
		if moved[v] == epoch {
			continue
		}
		if g := b.gain[v]; g != it.gain {
			// Stale key: reinsert with the fresh gain.
			inHeap[v] = epoch
			h.push(gainItem{v: it.v, gain: g})
			continue
		}
		// Balance admission: the move must land within the slackified
		// caps, or at least strictly improve the worst load.
		if !b.feasibleAfterMove(v) && b.maxLoadAfterMove(v) >= b.maxLoad() {
			continue
		}
		b.move(v)
		moved[v] = epoch
		trail = append(trail, it.v)
		for _, u := range b.g.Neighbors(v) {
			push(int(u))
		}
		if s := trialScore(b); s.better(bestScore) {
			bestScore = s
			bestAt = len(trail)
			bad = 0
		} else {
			bad++
		}
	}

	// Roll back past the best prefix.
	for i := len(trail) - 1; i >= bestAt; i-- {
		b.move(int(trail[i]))
	}
	ws.heap, ws.trail = h, trail
	ws.fmMoves += int64(len(trail))
	ws.fmUndone += int64(len(trail) - bestAt)
	return bestAt > 0
}
