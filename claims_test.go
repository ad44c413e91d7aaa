package repro_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/mlrcb"
	"repro/internal/sim"
)

// TestClaimContactBalanceCrossover pins the backend crossover: on the
// first snapshot of the default (~10k node) sequence, only MCML+DT's
// multi-constraint multilevel partitioner keeps the contact phase
// balanced. The single-constraint alternatives — space-filling curve,
// balanced k-means, and ML+RCB's FE-only mesh partition — leave the
// contact nodes clustered in a few parts. The smallest gap measured
// is sfc's 1.59 against MCML+DT's 1.05 at k=8; the test asks for 30%.
func TestClaimContactBalanceCrossover(t *testing.T) {
	cfg := sim.DefaultConfig()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Steps/cfg.Snapshots; i++ {
		s.Step()
	}
	m := s.Snapshot(0).Mesh
	g := m.NodalGraph(mesh.DefaultNodalOptions())

	for _, k := range []int{8, 16} {
		contactImb := map[string]float64{}
		for _, be := range []string{"multilevel", "sfc", "bkmeans"} {
			d, err := core.Decompose(m, core.Config{K: k, Seed: 1, Backend: be})
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, be, err)
			}
			contactImb[be] = d.Stats().Imbalance[1]
		}
		st, err := mlrcb.Decompose(m, mlrcb.Config{K: k, Seed: 1})
		if err != nil {
			t.Fatalf("k=%d ml+rcb: %v", k, err)
		}
		contactImb["ml+rcb"] = metrics.LoadImbalance(g, st.MeshLabels, k)[1]
		t.Logf("k=%d contact imbalance: %v", k, contactImb)

		mc := contactImb["multilevel"]
		if mc > 1.10 {
			t.Errorf("k=%d: MCML+DT contact imbalance %.3f, want <= 1.10", k, mc)
		}
		for _, leg := range []string{"sfc", "bkmeans", "ml+rcb"} {
			if contactImb[leg] < 1.3*mc {
				t.Errorf("k=%d: %s contact imbalance %.3f is within 30%% of MCML+DT's %.3f",
					k, leg, contactImb[leg], mc)
			}
		}
	}
}

// TestClaimPreSearchCommunication pins the paper's headline claim:
// counting the communication before contact search, ML+RCB pays
// FEComm + 2·M2MComm + UpdComm against MCML+DT's FEComm, and
// MCML+DT's advantage shrinks as k grows (paper: ML+RCB pays +72% at
// k=25 and +29% at k=100). The paper scene at Refine 1 (~17.7k nodes,
// 10 snapshots over 400 steps) reproduces both: +65% and +26%. The
// quick profile (contactbench -quick, ~10k nodes) reproduces only the
// trend: there ML+RCB pays 7% and 15% less, so it asserts the shrink
// alone.
func TestClaimPreSearchCommunication(t *testing.T) {
	quick := sim.DefaultConfig()
	quick.Snapshots, quick.Steps = 10, 100
	paper := sim.PaperConfig()
	paper.Scene.Refine, paper.Snapshots = 1, 10
	for _, tc := range []struct {
		name     string
		cfg      sim.Config
		headline bool
	}{{"quick", quick, false}, {"paper-refine1", paper, true}} {
		t.Run(tc.name, func(t *testing.T) {
			snaps, err := sim.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := harness.RunSweep(context.Background(), snaps,
				[]harness.Config{{K: 25, Seed: 1}, {K: 100, Seed: 1}}, harness.SweepOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var ratio [2]float64 // ML+RCB over MCML+DT pre-search communication
			for i, r := range res {
				ml := r.Avg.MLFEComm + 2*r.Avg.MLM2MComm + r.Avg.MLUpdComm
				ratio[i] = ml / r.Avg.MCFEComm
				t.Logf("k=%d: ML+RCB %.0f vs MCML+DT %.0f (%+.1f%%)", r.K, ml, r.Avg.MCFEComm, 100*(ratio[i]-1))
				if tc.headline && ratio[i] <= 1 {
					t.Errorf("k=%d: MCML+DT does not win the pre-search communication", r.K)
				}
			}
			if ratio[1] >= ratio[0] {
				t.Errorf("ML+RCB's relative cost does not shrink with k: %.3f at k=25, %.3f at k=100", ratio[0], ratio[1])
			}
		})
	}
}
