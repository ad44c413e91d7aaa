package partition

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/pool"
)

// parallelEvalCutoff is the vertex count above which the read-only
// evaluation sweeps (per-partition weight accumulation, edge-cut
// recomputation, imbalance reporting) run chunked over the worker
// pool. The sweeps reduce with exact integer addition into
// chunk-local accumulators merged in chunk order, so the parallel
// result is identical to the serial one. A variable so tests can
// force either path.
var parallelEvalCutoff = 1 << 15

// evalWorkers is the worker request for an evaluation sweep over nv
// vertices: one range below parallelEvalCutoff, every core above it.
func evalWorkers(nv int) int {
	if nv < parallelEvalCutoff {
		return 1
	}
	return 0
}

// accumPartitionWeights computes per-partition weight vectors and
// vertex counts under labels, in parallel above parallelEvalCutoff.
func accumPartitionWeights(g *graph.Graph, labels []int32, k int) ([][]int64, []int) {
	nv, ncon := g.NV(), g.NCon
	type local struct {
		pw  []int64 // k*ncon, partition-major
		cnt []int
	}
	parts := pool.Ranges(evalWorkers(nv), nv, func(lo, hi int) local {
		l := local{pw: make([]int64, k*ncon), cnt: make([]int, k)}
		for v := lo; v < hi; v++ {
			p := int(labels[v])
			w := g.Weights(v)
			for j, wj := range w {
				l.pw[p*ncon+j] += int64(wj)
			}
			l.cnt[p]++
		}
		return l
	})
	flat, cnt := make([]int64, k*ncon), make([]int, k)
	for _, l := range parts {
		for i, w := range l.pw {
			flat[i] += w
		}
		for p, c := range l.cnt {
			cnt[p] += c
		}
	}
	pw := make([][]int64, k)
	for p := range pw {
		pw[p] = flat[p*ncon : (p+1)*ncon : (p+1)*ncon]
	}
	return pw, cnt
}

// kwayState tracks a k-way partition's per-partition weight vectors.
// The scratch fields are reused across every refinement and balancing
// pass on the state, so a Repartition that alternates passes allocates
// its working memory once.
type kwayState struct {
	g      *graph.Graph
	labels []int32
	k      int
	pw     [][]int64 // pw[p][j]
	cnt    []int     // vertices per partition
	total  []int64
	caps   []int64 // per-constraint cap (1+eps)*total/k
	avg    []float64

	// Scratch (reusable across passes; always left zeroed/empty).
	conn    []int64 // per-partition connectivity of the current vertex
	touched []int32 // partitions with non-zero conn
	rank    []int32 // balance tie-break rank per vertex (seeded)
	perm    []int   // every pass's random vertex order, drawn by permute
	byPart  [][]int32
	pos     []int32 // index of each vertex within its byPart list
	drain   drainHeap
}

func newKwayState(g *graph.Graph, labels []int32, k int, eps float64) *kwayState {
	s := &kwayState{g: g, labels: labels, k: k, total: g.TotalWeights()}
	s.pw, s.cnt = accumPartitionWeights(g, labels, k)
	s.conn = make([]int64, k)
	s.perm = make([]int, g.NV())
	s.touched = make([]int32, 0, 16)
	s.caps = make([]int64, g.NCon)
	s.avg = make([]float64, g.NCon)
	for j := range s.caps {
		s.avg[j] = float64(s.total[j]) / float64(k)
		s.caps[j] = int64((1 + eps) * s.avg[j])
		// The cap must be at least ceil(avg): with caps below the
		// average, balance is pigeonhole-infeasible and the balancer
		// would churn forever chasing it.
		if ceil := (s.total[j] + int64(k) - 1) / int64(k); s.caps[j] < ceil {
			s.caps[j] = ceil
		}
		if s.caps[j] < 1 {
			s.caps[j] = 1
		}
	}
	return s
}

// loadOf returns partition p's worst relative load.
func (s *kwayState) loadOf(p int) float64 {
	worst := 0.0
	for j := 0; j < s.g.NCon; j++ {
		if s.total[j] == 0 {
			continue
		}
		if l := float64(s.pw[p][j]) / s.avg[j]; l > worst {
			worst = l
		}
	}
	return worst
}

// fits reports whether moving v to partition p is balance-safe: no
// constraint of p is pushed over its cap (a constraint already over
// cap tolerates additions of zero weight — they don't worsen it, and
// forbidding them can wedge multi-constraint drains), and v's current
// partition is not emptied.
func (s *kwayState) fits(v, p int) bool {
	if s.cnt[s.labels[v]] <= 1 {
		return false
	}
	w := s.g.Weights(v)
	for j, wj := range w {
		if s.total[j] == 0 || wj == 0 {
			continue
		}
		if s.pw[p][j]+int64(wj) > s.caps[j] {
			return false
		}
	}
	return true
}

// move reassigns v to partition p.
func (s *kwayState) move(v, p int) {
	old := s.labels[v]
	w := s.g.Weights(v)
	for j, wj := range w {
		s.pw[old][j] -= int64(wj)
		s.pw[p][j] += int64(wj)
	}
	s.cnt[old]--
	s.cnt[p]++
	s.labels[v] = int32(p)
}

// RefineKWay improves a given k-way partition in place: greedy
// boundary passes that move vertices to the adjacent partition with
// the largest edge-cut gain subject to the (1+eps) caps, followed by
// an explicit balancing sweep for any partition still over its cap.
// It is used as the final polish after recursive bisection and as the
// multi-constraint k-way refinement of the collapsed region graph G'
// in Section 4.2 (where it must repair the balance the majority
// reassignment P -> P' destroyed).
func RefineKWay(g *graph.Graph, labels []int32, opt Options) {
	opt = opt.withDefaults()
	if opt.K <= 1 || g.NV() == 0 {
		return
	}
	s := newKwayState(g, labels, opt.K, opt.Imbalance)
	rng := rand.New(rand.NewSource(opt.Seed + 7919))

	s.fillEmpty()
	for it := 0; it < refineIters; it++ {
		if s.greedyPass(rng) == 0 {
			break
		}
	}
	s.balance(rng)
	// Balance moves can open new gain opportunities; one more pass of
	// each keeps quality without looping forever.
	s.greedyPass(rng)
	s.balance(rng)
}

// fillEmpty guarantees every partition owns at least one vertex
// whenever the graph has at least k vertices: recursive bisection can
// leave a part empty on adversarial inputs (k close to NV with lumpy
// weights), and neither the greedy pass nor the balancer ever
// populates a partition from nothing. Each empty partition receives
// the vertex with the least internal connectivity (cheapest cut
// damage, ties to the lowest vertex id) from the partition currently
// holding the most vertices. Deterministic: no RNG involved.
func (s *kwayState) fillEmpty() {
	for p := 0; p < s.k; p++ {
		if s.cnt[p] > 0 {
			continue
		}
		donor := -1
		for q := 0; q < s.k; q++ {
			if s.cnt[q] > 1 && (donor < 0 || s.cnt[q] > s.cnt[donor]) {
				donor = q
			}
		}
		if donor < 0 {
			return // fewer vertices than partitions: nothing to donate
		}
		bestV, bestCost := -1, int64(1)<<62
		for v := 0; v < s.g.NV(); v++ {
			if int(s.labels[v]) != donor {
				continue
			}
			adj := s.g.Neighbors(v)
			wgt := s.g.EdgeWeights(v)
			var cost int64
			for i, u := range adj {
				if s.labels[u] == s.labels[v] {
					cost += int64(wgt[i])
				}
			}
			if cost < bestCost {
				bestV, bestCost = v, cost
			}
		}
		if bestV < 0 {
			return
		}
		s.move(bestV, p)
	}
}

// greedyPass sweeps all vertices once in random order, applying
// positive-gain (or balance-improving zero-gain) moves. Returns the
// number of moves applied.
func (s *kwayState) greedyPass(rng *rand.Rand) int {
	moves := 0
	conn := s.conn
	for _, v := range permute(rng, s.perm) {
		if s.gather(v) {
			own := s.labels[v]
			ownConn := conn[own]
			bestP, bestGain := -1, int64(0)
			for _, p := range s.touched {
				if p == own {
					continue
				}
				gain := conn[p] - ownConn
				if gain > bestGain && s.fits(v, int(p)) {
					bestP, bestGain = int(p), gain
				} else if gain == 0 && bestP < 0 && s.fits(v, int(p)) &&
					s.loadOf(int(p)) < s.loadOf(int(own))-1e-9 {
					// Zero-gain move that improves balance.
					bestP = int(p)
				}
			}
			if bestP >= 0 {
				s.move(v, bestP)
				moves++
			}
		}
		s.release()
	}
	return moves
}

// gather sums v's edge weight per adjacent partition into s.conn,
// lists each partition it touched once in s.touched, and reports
// whether v has a neighbour outside its own partition. release clears
// both for the next vertex.
func (s *kwayState) gather(v int) (boundary bool) {
	conn := s.conn
	own := s.labels[v]
	wgt := s.g.EdgeWeights(v)
	for i, u := range s.g.Neighbors(v) {
		p := s.labels[u]
		if conn[p] == 0 {
			s.touched = append(s.touched, p)
		}
		conn[p] += int64(wgt[i])
		if p != own {
			boundary = true
		}
	}
	return boundary
}

// release zeroes the connectivity gather left in s.conn and empties
// s.touched.
func (s *kwayState) release() {
	for _, p := range s.touched {
		s.conn[p] = 0
	}
	s.touched = s.touched[:0]
}

// drainCand is one candidate move out of the partition being drained:
// vertex v moves to partition to at edge-cut cost cost (positive =
// worsens the cut). rank is the vertex's position in the balance
// call's seeded permutation, the deterministic tie-break.
type drainCand struct {
	cost int64
	rank int32
	v    int32
	to   int32
}

// drainHeap is a min-heap of drainCand ordered by (cost, rank). A
// hand-rolled sift avoids the container/heap interface boxing on the
// balancer's hot path.
type drainHeap []drainCand

func (h drainHeap) less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].rank < h[j].rank
}

func (h *drainHeap) push(c drainCand) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *drainHeap) pop() drainCand {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// overloaded returns the most overloaded (partition, constraint) pair
// among the partitions not marked in skip (nil = consider all), or
// (-1, -1) when every one of them is within its caps.
func (s *kwayState) overloaded(skip []bool) (worstP, worstJ int) {
	worstP, worstJ = -1, -1
	worstLoad := 1.0
	for p := 0; p < s.k; p++ {
		if skip != nil && skip[p] {
			continue
		}
		for j := 0; j < s.g.NCon; j++ {
			if s.total[j] == 0 || s.pw[p][j] <= s.caps[j] {
				continue
			}
			if l := float64(s.pw[p][j]) / s.avg[j]; l > worstLoad {
				worstP, worstJ, worstLoad = p, j, l
			}
		}
	}
	return worstP, worstJ
}

// bestMove returns the least-cut-damage fitting move for a vertex of
// the partition being drained: the first adjacent partition (in
// adjacency order) achieving the minimum cost. ok is false when no
// adjacent partition fits.
func (s *kwayState) bestMove(v, from int) (cost int64, to int, ok bool) {
	s.gather(v)
	conn := s.conn
	best := int64(1) << 62
	to = -1
	for _, p := range s.touched {
		if int(p) != from && s.fits(v, int(p)) {
			if c := conn[from] - conn[p]; c < best {
				best, to = c, int(p)
			}
		}
	}
	s.release()
	return best, to, to >= 0
}

// buildMembership (re)builds the per-partition vertex lists reusing
// the state's backing arrays.
func (s *kwayState) buildMembership() {
	if s.byPart == nil {
		s.byPart = make([][]int32, s.k)
		s.pos = make([]int32, s.g.NV())
	}
	for p := range s.byPart {
		s.byPart[p] = s.byPart[p][:0]
	}
	for v, l := range s.labels {
		s.pos[v] = int32(len(s.byPart[l]))
		s.byPart[l] = append(s.byPart[l], int32(v))
	}
}

// moveTracked is move plus O(1) membership-list maintenance
// (swap-remove from the source list, append to the destination).
func (s *kwayState) moveTracked(v, p int) {
	from := s.labels[v]
	list := s.byPart[from]
	i := s.pos[v]
	last := list[len(list)-1]
	list[i] = last
	s.pos[last] = i
	s.byPart[from] = list[:len(list)-1]
	s.pos[v] = int32(len(s.byPart[p]))
	s.byPart[p] = append(s.byPart[p], int32(v))
	s.move(v, p)
}

// makeRoom finds a two-hop relief move for a wedged drain of
// (worstP, worstJ): a receiver q with room on worstJ is blocked only
// by being full on its other constraints, so shed from q the lightest
// vertex that carries q's tightest blocking constraint but no worstJ
// weight, into the least-loaded partition that fits it. Deterministic:
// receivers and destinations are tried in increasing (load, index)
// order, the shed vertex minimizes (blocking weight, index). Returns
// (-1, -1) when no such move exists.
func (s *kwayState) makeRoom(worstP, worstJ int) (v, to int) {
	order := s.byLoad(worstP)
	for _, q := range order {
		if s.pw[q][worstJ] >= s.caps[worstJ] {
			continue // no room on the overloaded constraint anyway
		}
		// q's tightest other constraint is what blocks arrivals.
		jStar, tight := -1, 0.0
		for j := 0; j < s.g.NCon; j++ {
			if j == worstJ || s.total[j] == 0 {
				continue
			}
			if l := float64(s.pw[q][j]) / float64(s.caps[j]); l > tight {
				jStar, tight = j, l
			}
		}
		if jStar < 0 {
			continue
		}
		for _, r := range order {
			if r == q {
				continue
			}
			bestV, bestW := -1, int64(1)<<62
			for _, u := range s.byPart[q] {
				if s.g.Weight(int(u), worstJ) != 0 || s.g.Weight(int(u), jStar) <= 0 {
					continue
				}
				if !s.fits(int(u), r) {
					continue
				}
				w := int64(s.g.Weight(int(u), jStar))
				if w < bestW || (w == bestW && int(u) < bestV) {
					bestV, bestW = int(u), w
				}
			}
			if bestV >= 0 {
				return bestV, r
			}
		}
	}
	return -1, -1
}

// byLoad returns every partition but skip in increasing (load, index)
// order, the order in which the balancer tries receivers.
func (s *kwayState) byLoad(skip int) []int {
	order := make([]int, 0, s.k-1)
	for p := 0; p < s.k; p++ {
		if p != skip {
			order = append(order, p)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := s.loadOf(order[a]), s.loadOf(order[b])
		if la != lb {
			return la < lb
		}
		return order[a] < order[b]
	})
	return order
}

// balance drains overweight partitions: while some (partition,
// constraint) pair exceeds a cap, move a member carrying weight on the
// overloaded constraint to a partition with room, preferring adjacent
// partitions (smallest cut damage) but accepting any partition with
// room when the overweight one has no suitable neighbor (the region
// graph G' can be very coarse). Only vertices with positive weight on
// the overloaded constraint are candidates — every applied move is
// guaranteed progress, so the drain cannot churn zero-weight vertices
// around without reducing the overload. A partition whose drain
// wedges (nothing fits anywhere) is marked stuck and skipped while the
// other overloads drain; stuck marks are retried whenever later moves
// changed the state. Gives up after a bounded number of moves so
// pathological instances terminate.
//
// The drain is boundary-driven: per overloaded (partition, constraint)
// it builds a min-heap of (cut-cost, seeded-rank) candidates from that
// partition's members once, then pops, revalidates, and applies moves,
// pushing refreshed candidates only for the moved vertex's neighbors
// that stay in the drained partition. Within one drain session the
// destinations only gain weight, so a candidate with no fitting target
// can be dropped instead of rescanned — the former full rescan of all
// NV vertices per drained vertex (with a fresh rng.Perm each) is gone.
// Determinism: a single seeded permutation per call fixes the
// tie-break ranks, all costs are exact integers, and a state that is
// already balanced returns before consuming any randomness.
func (s *kwayState) balance(rng *rand.Rand) {
	worstP, worstJ := s.overloaded(nil)
	if worstP < 0 {
		return // balanced; no rng consumed
	}
	nv := s.g.NV()
	if s.rank == nil {
		s.rank = make([]int32, nv)
	}
	for i, v := range permute(rng, s.perm) {
		s.rank[v] = int32(i)
	}
	s.buildMembership()

	var stuck []bool // partitions whose drain wedged since the last move
	movedSinceStuck := false
	// repick returns the next overload to drain, skipping wedged
	// partitions. Once every remaining overload is wedged it clears
	// the marks and picks again, unless nothing moved since they were
	// set: then it gives up with (-1, -1). reset reports the clearing.
	repick := func() (p, j int, reset bool) {
		if p, j = s.overloaded(stuck); p >= 0 || !movedSinceStuck {
			return p, j, false
		}
		clear(stuck)
		movedSinceStuck = false
		p, j = s.overloaded(nil)
		return p, j, true
	}
	maxMoves := 4*nv + 64
	heapP, heapJ := -1, -1 // (partition, constraint) the heap describes
	h := &s.drain
	for moves := 0; moves < maxMoves; {
		if heapP != worstP || heapJ != worstJ {
			*h = (*h)[:0]
			for _, v := range s.byPart[worstP] {
				if s.g.Weight(int(v), worstJ) <= 0 {
					continue // moving it would not reduce the overload
				}
				if cost, to, ok := s.bestMove(int(v), worstP); ok {
					h.push(drainCand{cost: cost, rank: s.rank[v], v: v, to: int32(to)})
				}
			}
			heapP, heapJ = worstP, worstJ
		}

		// Pop candidates lazily: skip vertices that already left the
		// partition, re-queue entries whose cost went stale-high (a
		// target filled up), accept exact ones. Cost decreases are
		// always accompanied by a fresh exact push below, so the first
		// validated pop is the true (cost, rank) minimum.
		bestV, bestTo := -1, -1
		for len(*h) > 0 {
			c := h.pop()
			if int(s.labels[c.v]) != worstP {
				continue
			}
			cost, to, ok := s.bestMove(int(c.v), worstP)
			if !ok {
				continue // no fitting target; cannot improve this session
			}
			if cost > c.cost {
				h.push(drainCand{cost: cost, rank: c.rank, v: c.v, to: int32(to)})
				continue
			}
			bestV, bestTo = int(c.v), to
			break
		}

		if bestV < 0 {
			// No adjacent partition has room: teleport the lightest
			// vertex carrying the overloaded constraint — minimum
			// positive weight on worstJ, lowest vertex id on ties — to
			// the least loaded partition that fits one. Partitions are
			// tried in increasing (load, index) order so a receiver
			// full on one constraint cannot wedge the whole drain while
			// a slightly more loaded one still has room.
			for _, toP := range s.byLoad(worstP) {
				var bestW int64 = 1 << 62
				for _, v := range s.byPart[worstP] {
					w := int64(s.g.Weight(int(v), worstJ))
					if w <= 0 || !s.fits(int(v), toP) {
						continue
					}
					if w < bestW || (w == bestW && int(v) < bestV) {
						bestV, bestTo, bestW = int(v), toP, w
					}
				}
				if bestV >= 0 {
					break
				}
			}
		}

		fromMakeRoom := false
		if bestV < 0 {
			// Two-hop relief: every partition with room on worstJ is
			// blocked by its *other* constraints (the paper's shape:
			// receivers with contact-constraint room are exactly full
			// on the FE constraint). Shed one blocking vertex from
			// such a receiver so the next drain step can land there.
			bestV, bestTo = s.makeRoom(worstP, worstJ)
			fromMakeRoom = bestV >= 0
		}

		if bestV < 0 {
			// This partition's drain is wedged. Skip it and work on the
			// next overload; retry wedged partitions once later moves
			// have changed the state (room may have opened up).
			if stuck == nil {
				stuck = make([]bool, s.k)
			}
			stuck[worstP] = true
			if worstP, worstJ, _ = repick(); worstP < 0 {
				return // balanced, or wedged with no progress since
			}
			continue
		}

		s.moveTracked(bestV, bestTo)
		moves++
		movedSinceStuck = true
		if fromMakeRoom {
			// A receiver just *lost* weight, which invalidates the
			// heap's "destinations only gain weight" drop rule:
			// rebuild it so dropped candidates get another look.
			heapP, heapJ = -1, -1
		}
		prevP, prevJ := worstP, worstJ
		var reset bool
		if worstP, worstJ, reset = repick(); worstP < 0 {
			return
		}
		if reset {
			continue // marks cleared: no neighbour re-push for this pick
		}
		if !fromMakeRoom && worstP == prevP && worstJ == prevJ {
			for _, u := range s.g.Neighbors(bestV) {
				if int(s.labels[u]) == worstP && s.g.Weight(int(u), worstJ) > 0 {
					if cost, to, ok := s.bestMove(int(u), worstP); ok {
						h.push(drainCand{cost: cost, rank: s.rank[u], v: u, to: int32(to)})
					}
				}
			}
		}
	}
}

// EdgeCut returns the total weight of edges cut by labels. Above
// parallelEvalCutoff the vertex sweep is chunked over the worker pool;
// the per-chunk partial cuts are exact integers, so the parallel sum
// equals the serial one.
func EdgeCut(g *graph.Graph, labels []int32) int64 {
	var cut int64
	for _, c := range pool.Ranges(evalWorkers(g.NV()), g.NV(), func(lo, hi int) int64 {
		return edgeCutRange(g, labels, lo, hi)
	}) {
		cut += c
	}
	return cut
}

// edgeCutRange sums the cut weight of edges whose lower endpoint lies
// in [lo, hi) — each undirected edge is counted exactly once, at its
// smaller endpoint.
func edgeCutRange(g *graph.Graph, labels []int32, lo, hi int) int64 {
	var cut int64
	for v := lo; v < hi; v++ {
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		for i, u := range adj {
			if int(u) > v && labels[u] != labels[v] {
				cut += int64(wgt[i])
			}
		}
	}
	return cut
}

// LoadImbalances returns, per constraint, the ratio of the heaviest
// partition weight to the average (the paper's LoadImbalance(P, j)).
func LoadImbalances(g *graph.Graph, labels []int32, k int) []float64 {
	pw, _ := accumPartitionWeights(g, labels, k)
	total := g.TotalWeights()
	out := make([]float64, g.NCon)
	for j := 0; j < g.NCon; j++ {
		if total[j] == 0 {
			out[j] = 1
			continue
		}
		avg := float64(total[j]) / float64(k)
		var worst int64
		for p := 0; p < k; p++ {
			if pw[p][j] > worst {
				worst = pw[p][j]
			}
		}
		out[j] = float64(worst) / avg
	}
	return out
}
