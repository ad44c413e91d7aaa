package repro_test

import (
	"context"
	"sync"
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

// quickSweepKs are the k of quickSweep's tight-filter experiments; it
// then runs the loose filter at k=25 and k=100.
var quickSweepKs = []int{4, 8, 16, 25, 50, 100}

// quickSweep is one fixed-partition sweep of the quick profile
// (contactbench -quick: ~10k nodes, 10 snapshots over 100 steps), one
// experiment per quickSweepKs entry with the tight tree filter and
// then the loose filter at k=25 and k=100.
var quickSweep = sync.OnceValues(func() ([]*harness.Result, error) {
	cfg := sim.DefaultConfig()
	cfg.Snapshots, cfg.Steps = 10, 100
	snaps, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	var cfgs []harness.Config
	for _, k := range quickSweepKs {
		cfgs = append(cfgs, harness.Config{K: k, Seed: 1})
	}
	for _, k := range []int{25, 100} {
		cfgs = append(cfgs, harness.Config{K: k, Seed: 1, LooseTreeFilter: true})
	}
	return harness.RunSweep(context.Background(), snaps, cfgs, harness.SweepOptions{})
})

// TestClaimNTNodesSublinear pins Table 1's descriptor-tree trend:
// NTNodes grows with k, but more slowly than k (paper: 1,206 → 2,144
// from k=25 to k=100). On the quick profile it measured 69.8, 96.2,
// 284.0, 455.6, 723.2 and 922.4 for k = 4, 8, 16, 25, 50, 100: from
// k=25 to k=100 it grows 2.0× for 4× the parts, and 13.2× for 25× over
// the whole range. Between k=8 and k=16 it grows 3.0×, faster than k,
// so the test does not ask for sublinear growth at every step.
func TestClaimNTNodesSublinear(t *testing.T) {
	res, err := quickSweep()
	if err != nil {
		t.Fatal(err)
	}
	byK := map[int]float64{}
	for i, k := range quickSweepKs {
		byK[k] = res[i].Avg.MCNTNodes
		t.Logf("k=%d: NTNodes %.1f", k, byK[k])
		if i > 0 && byK[k] <= byK[quickSweepKs[i-1]] {
			t.Errorf("NTNodes does not grow from k=%d to k=%d: %.1f then %.1f",
				quickSweepKs[i-1], k, byK[quickSweepKs[i-1]], byK[k])
		}
	}
	for _, p := range [][2]int{{25, 100}, {4, 100}} {
		lo, hi := p[0], p[1]
		if grow := byK[hi] / byK[lo]; grow >= float64(hi)/float64(lo) {
			t.Errorf("NTNodes grows %.2f× from k=%d to k=%d, not less than k's %d×", grow, lo, hi, hi/lo)
		}
	}
}

// TestClaimTightTreeFilter pins the tree-filter ablation: with the
// tight per-leaf point boxes MCML+DT's global search ships fewer
// elements (NRemote) than ML+RCB's, with the paper's raw leaf
// rectangles it ships more. The quick profile measured tight 2,019.0
// and loose 4,391.4 against ML+RCB's 3,136.8 at k=25, and 3,303.1 and
// 8,511.7 against 5,465.4 at k=100.
func TestClaimTightTreeFilter(t *testing.T) {
	res, err := quickSweep()
	if err != nil {
		t.Fatal(err)
	}
	tight := map[int]*harness.Result{}
	for i, k := range quickSweepKs {
		tight[k] = res[i]
	}
	for i, k := range []int{25, 100} {
		tr, lr := tight[k], res[len(quickSweepKs)+i]
		ml := tr.Avg.MLNRemote
		t.Logf("k=%d: NRemote tight %.1f, loose %.1f, ML+RCB %.1f", k, tr.Avg.MCNRemote, lr.Avg.MCNRemote, ml)
		if tr.Avg.MCNRemote >= ml {
			t.Errorf("k=%d: tight filter's NRemote %.1f does not beat ML+RCB's %.1f", k, tr.Avg.MCNRemote, ml)
		}
		if lr.Avg.MCNRemote <= ml {
			t.Errorf("k=%d: loose filter's NRemote %.1f beats ML+RCB's %.1f", k, lr.Avg.MCNRemote, ml)
		}
	}
}
