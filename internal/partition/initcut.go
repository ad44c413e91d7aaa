package partition

import "math/rand"

// growBisection computes an initial 2-way partition by greedy graph
// growing (multi-constraint variant): starting from a random seed, it
// moves vertices to side 1 until every constraint's side-1 weight has
// reached its target fraction. Among frontier vertices it prefers the
// highest-gain vertex that contributes to a still-deficient
// constraint; when side 1's frontier cannot supply a deficient
// constraint (disconnected graphs, exhausted regions), a fresh seed is
// picked. The bisection must be in the reset state (all side 0).
//
// The coarsest graph is small (about coarsenTo vertices), so the
// quadratic scans here are deliberate — simplicity over asymptotics.
// The frontier and constraint scratch live in ws.
func growBisection(b *bisection, rng *rand.Rand, ws *workspace) {
	n := b.g.NV()
	if n == 0 {
		return
	}
	if len(ws.inFrontier) < n {
		// A vertex enters the frontier at most once, so appends to
		// frontier never outgrow this capacity.
		ws.inFrontier = make([]bool, n)
		ws.frontier = make([]int32, 0, n)
		ws.deficient = make([]bool, b.g.NCon)
	}
	inFrontier := ws.inFrontier[:n]
	clear(inFrontier)
	frontier := ws.frontier[:0]

	addNeighbors := func(v int) {
		for _, u := range b.g.Neighbors(v) {
			if b.where[u] == 0 && !inFrontier[u] {
				inFrontier[u] = true
				frontier = append(frontier, u)
			}
		}
	}

	deficient := func() []bool {
		d := ws.deficient
		for j := range d {
			d[j] = b.total[j] > 0 && b.load(1, j) < 1
		}
		return d
	}
	anyTrue := func(d []bool) bool {
		for _, x := range d {
			if x {
				return true
			}
		}
		return false
	}
	helps := func(v int, d []bool) bool {
		w := b.g.Weights(v)
		for j, need := range d {
			if need && w[j] > 0 {
				return true
			}
		}
		return false
	}

	pickSeed := func(d []bool) int {
		// Random vertex on side 0, preferring one that helps a
		// deficient constraint.
		start := rng.Intn(n)
		fallback := -1
		for i := 0; i < n; i++ {
			v := (start + i) % n
			if b.where[v] != 0 {
				continue
			}
			if helps(v, d) {
				return v
			}
			if fallback < 0 {
				fallback = v
			}
		}
		return fallback
	}

	guard := 0
	for {
		d := deficient()
		if !anyTrue(d) {
			return
		}
		if guard++; guard > n+1 {
			return // every vertex moved or unmovable
		}

		// Compact the frontier (drop vertices that moved).
		w := 0
		for _, v := range frontier {
			if b.where[v] == 0 {
				frontier[w] = v
				w++
			} else {
				inFrontier[v] = false
			}
		}
		frontier = frontier[:w]

		// Pick the best frontier vertex in three preference tiers:
		// (1) helps a deficient constraint without overshooting any
		// satisfied constraint, (2) helps a deficient constraint,
		// (3) anything. Within a tier, maximum gain wins. The
		// overshoot guard is what keeps one side from swallowing an
		// entire weight class (e.g. the whole contact surface) while
		// chasing the other constraint.
		bestSafe, bestHelp, bestAny := -1, -1, -1
		var bestSafeG, bestHelpG, bestAnyG int64
		for _, v := range frontier {
			g := b.gain[v]
			if helps(int(v), d) {
				if bestHelp < 0 || g > bestHelpG {
					bestHelp, bestHelpG = int(v), g
				}
				if !b.overshoots(int(v), d) && (bestSafe < 0 || g > bestSafeG) {
					bestSafe, bestSafeG = int(v), g
				}
			}
			if bestAny < 0 || g > bestAnyG {
				bestAny, bestAnyG = int(v), g
			}
		}
		v := bestSafe
		if v < 0 {
			v = bestHelp
		}
		if v < 0 {
			v = bestAny
		}
		if v < 0 {
			v = pickSeed(d)
			if v < 0 {
				return // nothing left on side 0
			}
		}
		if inFrontier[v] {
			inFrontier[v] = false
		}
		b.move(v)
		addNeighbors(v)
	}
}
