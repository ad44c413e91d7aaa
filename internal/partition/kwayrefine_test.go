package partition

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// teleportScenario builds the smallest graph on which the balancer is
// forced into the teleport fallback with a choice to make: partition 0
// holds a triangle {v0(w=2), v1(w=1), v2(w=2)} with no edges leaving
// it, partition 1 holds the isolated v3(w=2). With eps=0.05 the caps
// work out to 4, partition 0 carries 5, and no candidate has an
// *adjacent* foreign partition — so the drain must teleport. Both v0
// and v1 fit in partition 1; moving either restores balance. The
// lightest-vertex rule must pick v1 (weight 1), while the historical
// bug — "first fitting vertex by index" — picked v0 (weight 2).
func teleportScenario(ncon, wcon int) (*graph.Graph, []int32) {
	b := graph.NewBuilder(4, ncon)
	for v, w := range []int32{2, 1, 2, 2} {
		b.SetWeight(v, wcon, w)
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 2, 1)
	return b.Build(), []int32{0, 0, 0, 1}
}

// TestBalanceTeleportMovesLightestVertex is the regression test for the
// teleport fallback: it must move the minimum-weight fitting vertex on
// the overloaded constraint, not the first fitting vertex by index.
func TestBalanceTeleportMovesLightestVertex(t *testing.T) {
	g, labels := teleportScenario(1, 0)
	s := newKwayState(g, labels, 2, 0.05)
	s.balance(rand.New(rand.NewSource(1)))

	want := []int32{0, 1, 0, 1} // v1, the weight-1 vertex, teleports
	for v, l := range labels {
		if l != want[v] {
			t.Fatalf("labels = %v, want %v (teleport must move the lightest fitting vertex, not the first by index)", labels, want)
		}
	}
	if p, j := s.overloaded(nil); p >= 0 {
		t.Fatalf("still overloaded after balance: partition %d constraint %d", p, j)
	}
}

// TestBalanceTeleportUsesOverloadedConstraint pins the "on the
// overloaded constraint" half of the rule: with two constraints where
// only constraint 1 is loaded (constraint 0 is all-zero and therefore
// ignored), the weights that decide the teleport must be read from
// constraint 1. An implementation hardwired to constraint 0 would see
// all-equal (zero) weights and fall back to the index tie-break,
// moving v0 instead of v1.
func TestBalanceTeleportUsesOverloadedConstraint(t *testing.T) {
	g, labels := teleportScenario(2, 1)
	s := newKwayState(g, labels, 2, 0.05)
	s.balance(rand.New(rand.NewSource(1)))

	want := []int32{0, 1, 0, 1}
	for v, l := range labels {
		if l != want[v] {
			t.Fatalf("labels = %v, want %v (teleport weight must be read on the overloaded constraint)", labels, want)
		}
	}
}

// TestBalanceDrainsSkewedPartition feeds the balancer the worst case
// its rewrite targets — every vertex in one partition — and checks the
// single-constraint drain restores every cap and is deterministic in
// the seed.
func TestBalanceDrainsSkewedPartition(t *testing.T) {
	const k = 4
	g := grid(16, 16, 1)
	run := func(seed int64) ([]int32, *kwayState) {
		labels := make([]int32, g.NV())
		s := newKwayState(g, labels, k, 0.05)
		s.balance(rand.New(rand.NewSource(seed)))
		return labels, s
	}

	labels, s := run(42)
	for j := 0; j < g.NCon; j++ {
		for p := 0; p < k; p++ {
			if s.pw[p][j] > s.caps[j] {
				t.Errorf("constraint %d partition %d: weight %d > cap %d", j, p, s.pw[p][j], s.caps[j])
			}
		}
	}

	again, _ := run(42)
	for v := range labels {
		if labels[v] != again[v] {
			t.Fatalf("balance not deterministic: vertex %d got %d then %d", v, labels[v], again[v])
		}
	}
}

// TestBalanceImprovesMultiConstraintSkew: the fully-skewed two-
// constraint case is not always cap-feasible for a drain-only balancer
// (restoring one constraint can require moving weight out of a
// partition that is not overloaded, which the drain never does), so
// the contract is weaker: every constraint's imbalance must strictly
// improve and the result must be deterministic.
func TestBalanceImprovesMultiConstraintSkew(t *testing.T) {
	const k = 4
	g := grid(16, 16, 2)
	before := LoadImbalances(g, make([]int32, g.NV()), k)

	run := func() []int32 {
		labels := make([]int32, g.NV())
		s := newKwayState(g, labels, k, 0.05)
		s.balance(rand.New(rand.NewSource(42)))
		return labels
	}
	labels := run()
	after := LoadImbalances(g, labels, k)
	for j := range after {
		if after[j] >= before[j] {
			t.Errorf("constraint %d: imbalance %.4f did not improve on %.4f", j, after[j], before[j])
		}
	}

	again := run()
	for v := range labels {
		if labels[v] != again[v] {
			t.Fatalf("balance not deterministic: vertex %d got %d then %d", v, labels[v], again[v])
		}
	}
}

// TestBalanceNoRNGWhenBalanced pins the historical contract that an
// already-balanced state consumes no randomness: callers interleave
// balance with other seeded passes, so a no-op balance must not shift
// the downstream random stream.
func TestBalanceNoRNGWhenBalanced(t *testing.T) {
	g := grid(8, 8, 1)
	labels := make([]int32, g.NV())
	for v := range labels {
		if v >= g.NV()/2 {
			labels[v] = 1
		}
	}
	s := newKwayState(g, labels, 2, 0.05)
	if p, _ := s.overloaded(nil); p >= 0 {
		t.Fatalf("test setup: expected a balanced split, partition %d overloaded", p)
	}
	rng := rand.New(rand.NewSource(7))
	s.balance(rng)
	if got, want := rng.Int63(), rand.New(rand.NewSource(7)).Int63(); got != want {
		t.Fatalf("balance consumed randomness on a balanced state: next draw %d, want %d", got, want)
	}
}
