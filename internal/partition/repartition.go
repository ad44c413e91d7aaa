package partition

import (
	"math/rand"

	"repro/internal/graph"
)

// itr is the relative cost of migrating one unit of vertex weight
// versus one unit of edge cut (the ParMETIS "itr" ratio): the higher
// it is, the more vertices the repartitioner keeps in place.
const itr = 1000

// Repartition adapts an existing k-way partitioning to a (possibly
// rebalanced or re-weighted) graph, the multi-constraint repartitioning
// problem of Section 2: restore LoadImbalance(P, j) <= 1+eps for every
// constraint and keep the edge cut low, while maximizing the number of
// vertices that keep their old partition (minimizing migration).
//
// The algorithm follows the diffusion family of Schloegel, Karypis &
// Kumar [32, 33]: start from the old labels, drain overweight
// partitions along partition-adjacency paths choosing the moves with
// the best (cut-damage, migration) cost, then run cut refinement whose
// moves pay a migration penalty of weight/itr so that low-gain churn
// is suppressed. labels is modified in place; Overlap against a copy
// of the old labels counts the vertices that kept their partition.
func Repartition(g *graph.Graph, labels []int32, opt Options) error {
	if err := opt.validate(); err != nil {
		return err
	}
	opt = opt.withDefaults()
	if opt.K <= 1 || g.NV() == 0 {
		return nil
	}
	old := append([]int32(nil), labels...)

	s := newKwayState(g, labels, opt.K, opt.Imbalance)
	rng := rand.New(rand.NewSource(opt.Seed + 104729))

	// Phase 1: balance restoration (diffusion). The kwayState balancer
	// already picks minimum-cut-damage drains from the most overloaded
	// partition; reuse it.
	s.balance(rng)

	// Phase 2: migration-aware refinement. Like greedyPass, but a move
	// away from the vertex's *original* partition must overcome the
	// migration penalty, and a move back home gets it as a bonus.
	penalty := migrationPenalty(g)
	for it := 0; it < refineIters; it++ {
		if s.migrationAwarePass(rng, old, penalty) == 0 {
			break
		}
	}
	s.balance(rng)
	return nil
}

// migrationPenalty is the integer edge-weight penalty charged to moves
// that leave a vertex's original partition: average edge weight
// divided by itr, at least 1 so migration is never entirely free.
func migrationPenalty(g *graph.Graph) int64 {
	avg := float64(g.TotalEdgeWeight()) / float64(max(g.NE(), 1))
	return int64(avg/itr + 1)
}

// migrationAwarePass is greedyPass with a migration cost: moving v to
// a partition other than old[v] costs extra, moving it home refunds.
func (s *kwayState) migrationAwarePass(rng *rand.Rand, old []int32, penalty int64) int {
	moves := 0
	conn := s.conn
	for _, v := range permute(rng, s.perm) {
		if s.gather(v) {
			own := s.labels[v]
			ownConn := conn[own]
			bestP := -1
			var bestScore int64
			for _, p := range s.touched {
				if p == own {
					continue
				}
				score := conn[p] - ownConn
				// Migration economics relative to the original home.
				if own == old[v] && p != old[v] {
					score -= penalty // leaving home
				} else if own != old[v] && p == old[v] {
					score += penalty // returning home
				}
				if score > bestScore && s.fits(v, int(p)) {
					bestP, bestScore = int(p), score
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

// Overlap returns the number of vertices whose labels agree between
// two labelings (the repartitioning objective of Section 2).
func Overlap(a, b []int32) int {
	n := 0
	for i := range a {
		if a[i] == b[i] {
			n++
		}
	}
	return n
}
