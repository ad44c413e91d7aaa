package partition

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestDriftDecisionString(t *testing.T) {
	cases := map[DriftDecision]string{
		DriftKeep:        "keep",
		DriftDiffuse:     "diffuse",
		DriftFull:        "full",
		DriftDecision(9): "unknown",
	}
	for d, want := range cases {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), want)
		}
	}
}

func TestDriftThresholdDefaults(t *testing.T) {
	th := DriftThresholds{}.WithDefaults(0.05)
	if th.CutDrift != 0.05 || th.FullCutDrift != 0.25 {
		t.Errorf("cut thresholds = %v/%v, want 0.05/0.25", th.CutDrift, th.FullCutDrift)
	}
	if want := 1 + 4*0.05; th.FullImbalance != want {
		t.Errorf("FullImbalance = %v, want %v", th.FullImbalance, want)
	}
	// Explicit values survive.
	th = DriftThresholds{CutDrift: 0.1, FullCutDrift: 0.5, FullImbalance: 2}.WithDefaults(0.05)
	if th.CutDrift != 0.1 || th.FullCutDrift != 0.5 || th.FullImbalance != 2 {
		t.Errorf("explicit thresholds overwritten: %+v", th)
	}
}

// TestDriftDecideLadder walks the keep/diffuse/full ladder on both
// axes (imbalance and relative cut drift) with the default thresholds
// at eps = 0.05.
func TestDriftDecideLadder(t *testing.T) {
	th := DriftThresholds{}
	const eps, base = 0.05, 1000
	cases := []struct {
		name string
		cur  DriftState
		base int64
		want DriftDecision
	}{
		{"pristine", DriftState{Cut: base, Imbalance: 1.0}, base, DriftKeep},
		{"cut shrank", DriftState{Cut: 900, Imbalance: 1.01}, base, DriftKeep},
		{"cut drift at threshold", DriftState{Cut: 1050, Imbalance: 1.0}, base, DriftKeep},
		{"cut drift past threshold", DriftState{Cut: 1051, Imbalance: 1.0}, base, DriftDiffuse},
		{"imbalance past eps", DriftState{Cut: base, Imbalance: 1.06}, base, DriftDiffuse},
		{"cut drift past full", DriftState{Cut: 1251, Imbalance: 1.0}, base, DriftFull},
		{"imbalance past full", DriftState{Cut: base, Imbalance: 1.21}, base, DriftFull},
		{"both moderate", DriftState{Cut: 1100, Imbalance: 1.1}, base, DriftDiffuse},
		{"zero baseline, zero cut", DriftState{Cut: 0, Imbalance: 1.0}, 0, DriftKeep},
		{"zero baseline, cut appeared", DriftState{Cut: 1, Imbalance: 1.0}, 0, DriftFull},
	}
	for _, c := range cases {
		if got := th.Decide(c.cur, c.base, eps); got != c.want {
			t.Errorf("%s: Decide(%+v, base=%d) = %v, want %v", c.name, c.cur, c.base, got, c.want)
		}
	}
}

// TestMeasureDrift cross-checks the measured state against the
// package's own (independently tested) cut and imbalance evaluators.
func TestMeasureDrift(t *testing.T) {
	g := grid(12, 9, 2)
	labels, err := KWay(context.Background(), g, Options{K: 4, Seed: 3, Imbalance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	st := MeasureDrift(g, labels, 4)
	if want := EdgeCut(g, labels); st.Cut != want {
		t.Errorf("Cut = %d, want %d", st.Cut, want)
	}
	worst := 1.0
	for _, imb := range LoadImbalances(g, labels, 4) {
		if imb > worst {
			worst = imb
		}
	}
	if st.Imbalance != worst {
		t.Errorf("Imbalance = %v, want %v", st.Imbalance, worst)
	}
}

// erode returns a drifted copy of g: same topology, with the vertex
// weights of a random subset inflated — the discrete analogue of the
// paper's eroding plate, which loads some partitions and unbalances an
// inherited labeling.
func erode(g *graph.Graph, r *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(g.NV(), g.NCon)
	for v := 0; v < g.NV(); v++ {
		for j := 0; j < g.NCon; j++ {
			w := g.Weight(v, j)
			if w > 0 && r.Intn(4) == 0 {
				w += int32(1 + r.Intn(3))
			}
			b.SetWeight(v, j, w)
		}
	}
	for v := 0; v < g.NV(); v++ {
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		for i, u := range adj {
			if int(u) > v {
				b.AddEdge(v, int(u), wgt[i])
			}
		}
	}
	return b.Build()
}

// TestRepartitionPropertiesGrid is the strict half of the Repartition
// property suite: on eroded grids — feasible instances, the shape of
// the paper's deforming plate — the post-call loads must be within the
// balancer's cap plus granularity slack, with no give-ups tolerated,
// and the repartitioned labels must overlap the inherited ones at
// least as much as a from-scratch Partition would (the Section 2
// migration objective).
func TestRepartitionPropertiesGrid(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const eps = 0.05
	for trial, k := range []int{2, 4, 4, 8, 8, 16} {
		g := grid(20+4*trial, 15+3*trial, 2)
		prev, err := KWay(context.Background(), g, Options{K: k, Seed: int64(trial), Imbalance: eps})
		if err != nil {
			t.Fatal(err)
		}
		g2 := erode(g, r)

		labels := append([]int32(nil), prev...)
		if err := Repartition(g2, labels, Options{K: k, Seed: int64(trial), Imbalance: eps}); err != nil {
			t.Fatal(err)
		}

		if flagged := checkInvariants(t, g2, labels, k, eps); len(flagged) > 0 {
			t.Errorf("trial %d (nv=%d k=%d): repartition balance violations: %v",
				trial, g2.NV(), k, flagged)
		}

		scratch, err := KWay(context.Background(), g2, Options{K: k, Seed: int64(trial), Imbalance: eps})
		if err != nil {
			t.Fatal(err)
		}
		if wo, so := Overlap(prev, labels), Overlap(prev, scratch); wo < so {
			t.Errorf("trial %d (nv=%d k=%d): repartition overlap %d < scratch overlap %d",
				trial, g2.NV(), k, wo, so)
		}
	}
}

// TestRepartitionPropertiesRandom extends the properties to the
// invariant suite's adversarial random multi-constraint family. The
// overlap property stays strict; balance follows the suite's
// established framing — the drain-only balancer may give up on
// near-infeasible instances (sparse spiky constraints), but that must
// stay bounded.
func TestRepartitionPropertiesRandom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const eps = 0.05
	const runs = 20
	flagged := 0
	for trial := 0; trial < runs; trial++ {
		g, k := randConnGraph(r)
		prev, err := KWay(context.Background(), g, Options{K: k, Seed: int64(trial), Imbalance: eps})
		if err != nil {
			t.Fatal(err)
		}
		g2 := erode(g, r)

		labels := append([]int32(nil), prev...)
		if err := Repartition(g2, labels, Options{K: k, Seed: int64(trial), Imbalance: eps}); err != nil {
			t.Fatal(err)
		}

		if v := checkInvariants(t, g2, labels, k, eps); len(v) > 0 {
			flagged++
			t.Logf("trial %d (nv=%d k=%d) flagged: %v", trial, g2.NV(), k, v)
		}

		scratch, err := KWay(context.Background(), g2, Options{K: k, Seed: int64(trial), Imbalance: eps})
		if err != nil {
			t.Fatal(err)
		}
		if wo, so := Overlap(prev, labels), Overlap(prev, scratch); wo < so {
			t.Errorf("trial %d (nv=%d k=%d): repartition overlap %d < scratch overlap %d",
				trial, g2.NV(), k, wo, so)
		}
	}
	if flagged > runs/2 {
		t.Errorf("%d of %d runs violated balance beyond granularity slack", flagged, runs)
	}
}

// TestRepartitionDeterministicAcrossEvalPaths forces the serial and
// the chunked-parallel evaluation sweeps and requires byte-identical
// labels — the repartitioner's reductions must be exact.
func TestRepartitionDeterministicAcrossEvalPaths(t *testing.T) {
	g := grid(40, 30, 2)
	prev, err := KWay(context.Background(), g, Options{K: 6, Seed: 5, Imbalance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(23))
	g2 := erode(g, r)

	run := func(cutoff int) []int32 {
		defer func(old int) { parallelEvalCutoff = old }(parallelEvalCutoff)
		parallelEvalCutoff = cutoff
		labels := append([]int32(nil), prev...)
		if err := Repartition(g2, labels, Options{K: 6, Seed: 5, Imbalance: 0.05}); err != nil {
			t.Fatal(err)
		}
		return labels
	}
	serial := run(1 << 30) // force serial sweeps
	par := run(1)          // force chunked sweeps
	for v := range serial {
		if serial[v] != par[v] {
			t.Fatalf("vertex %d: serial eval label %d != parallel eval label %d", v, serial[v], par[v])
		}
	}
}
