package main

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/partition"
)

// TestCheckUpdate: update-strategy flags that would do nothing or
// could not run are rejected; every combination that runs is accepted.
func TestCheckUpdate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   harness.Config
		ok    bool
		fixed bool // -sweep or -ablate
	}{
		{"fixed", harness.Config{}, true, false},
		{"adaptive", harness.Config{Adaptive: true, Drift: partition.DriftThresholds{CutDrift: 0.1, FullCutDrift: 0.5, FullImbalance: 1.2}}, true, false},
		{"incremental", harness.Config{RepartitionEvery: 2, Incremental: true, Drift: partition.DriftThresholds{FullImbalance: 1.2}}, true, false},
		{"hybrid_geometric", harness.Config{RepartitionEvery: 2, Backend: "rcb"}, true, false},
		{"incremental_without_cadence", harness.Config{Incremental: true}, false, false},
		{"drift_cut_without_adaptive", harness.Config{Drift: partition.DriftThresholds{CutDrift: 0.1}}, false, false},
		{"drift_full_cut_without_adaptive", harness.Config{RepartitionEvery: 2, Incremental: true, Drift: partition.DriftThresholds{FullCutDrift: 0.5}}, false, false},
		{"drift_imb_without_warm_start", harness.Config{RepartitionEvery: 2, Drift: partition.DriftThresholds{FullImbalance: 1.2}}, false, false},
		{"adaptive_geometric", harness.Config{Adaptive: true, Backend: "rcb"}, false, false},
		{"incremental_geometric", harness.Config{RepartitionEvery: 2, Incremental: true, Backend: "sfc"}, false, false},
		{"unknown_backend", harness.Config{Backend: "quadtree"}, false, false},
		{"adaptive_with_cadence", harness.Config{Adaptive: true, RepartitionEvery: 2}, false, false},
		{"sweep_fixed", harness.Config{}, true, true},
		{"sweep_backend", harness.Config{Backend: "sfc"}, false, true},
		{"sweep_adaptive", harness.Config{Adaptive: true}, false, true},
		{"sweep_cadence", harness.Config{RepartitionEvery: 2}, false, true},
		{"sweep_incremental", harness.Config{RepartitionEvery: 2, Incremental: true}, false, true},
		{"sweep_drift", harness.Config{Adaptive: true, Drift: partition.DriftThresholds{CutDrift: 0.1}}, false, true},
	} {
		if err := checkUpdate(tc.cfg, tc.fixed); (err == nil) != tc.ok {
			t.Errorf("%s: checkUpdate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
