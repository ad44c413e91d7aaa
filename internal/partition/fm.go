package partition

import "math/rand"

// refineFM runs up to iters passes of Fiduccia–Mattheyses boundary
// refinement with multi-constraint balance on the bisection: each pass
// tentatively moves vertices in best-gain-first order (negative-gain
// moves allowed for hill climbing), then rolls back to the best prefix
// seen. Moves are admitted only if they keep maxLoad within (1+eps) or
// strictly improve it, so the pass doubles as a balancer when the
// projected partition is overweight.
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

// workspace holds the scratch arrays of one bisect call, sized for
// its finest graph and reused by every coarser level, initial-cut
// trial and FM pass, so a bisection allocates O(levels) slices
// instead of O(passes).
type workspace struct {
	heap  gainHeap
	trail []int32 // vertices moved in the current pass, in order
	// A vertex is in the heap when inHeap[v] == epoch and has moved in
	// this pass when moved[v] == epoch; bumping epoch clears both.
	inHeap, moved []uint32
	epoch         uint32
	boundary      []bool // fmPass: v has a neighbour on the other side
	perm          []int
	match         []int32 // heavyEdgeMatch output
	// Greedy-growing scratch (growBisection).
	frontier   []int32
	inFrontier []bool
	deficient  []bool
}

func newWorkspace(n int) *workspace {
	return &workspace{
		heap:     make(gainHeap, 0, 256),
		inHeap:   make([]uint32, n),
		moved:    make([]uint32, n),
		boundary: make([]bool, n),
		perm:     make([]int, n),
		match:    make([]int32, n),
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

// permute returns a random permutation of [0, n) in the workspace's
// buffer. It draws exactly what rng.Perm(n) draws, in the same order,
// and returns the same permutation, so the RNG stream is unchanged.
func (ws *workspace) permute(rng *rand.Rand, n int) []int {
	m := ws.perm[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// maxBadMoves bounds the hill-climbing tail of an FM pass.
const maxBadMoves = 120

// fmPass runs one pass and reports whether it changed the partition.
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

	// Seed with the boundary vertices (random order for tie diversity).
	// They are found in vertex order first: scanning rows in the
	// permutation's order would miss the cache on every row of a
	// large graph.
	boundary := ws.boundary[:n]
	for v := range boundary {
		boundary[v] = false
		s := b.where[v]
		for _, u := range b.g.Neighbors(v) {
			if b.where[u] != s {
				boundary[v] = true
				break
			}
		}
	}
	for _, v := range ws.permute(rng, n) {
		if boundary[v] {
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
	changed := false
	bad := 0

	for len(h) > 0 && bad < maxBadMoves {
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
		changed = true
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
	return changed && bestAt > 0
}
