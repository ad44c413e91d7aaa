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
		name string
		cfg  harness.Config
		ok   bool
	}{
		{"fixed", harness.Config{}, true},
		{"adaptive", harness.Config{Adaptive: true, Drift: partition.DriftThresholds{CutDrift: 0.1, FullCutDrift: 0.5, FullImbalance: 1.2}}, true},
		{"incremental", harness.Config{RepartitionEvery: 2, Incremental: true, Drift: partition.DriftThresholds{FullImbalance: 1.2}}, true},
		{"hybrid_geometric", harness.Config{RepartitionEvery: 2, Backend: "rcb"}, true},
		{"incremental_without_cadence", harness.Config{Incremental: true}, false},
		{"drift_cut_without_adaptive", harness.Config{Drift: partition.DriftThresholds{CutDrift: 0.1}}, false},
		{"drift_full_cut_without_adaptive", harness.Config{RepartitionEvery: 2, Incremental: true, Drift: partition.DriftThresholds{FullCutDrift: 0.5}}, false},
		{"drift_imb_without_warm_start", harness.Config{RepartitionEvery: 2, Drift: partition.DriftThresholds{FullImbalance: 1.2}}, false},
		{"adaptive_geometric", harness.Config{Adaptive: true, Backend: "rcb"}, false},
		{"incremental_geometric", harness.Config{RepartitionEvery: 2, Incremental: true, Backend: "sfc"}, false},
		{"unknown_backend", harness.Config{Backend: "quadtree"}, false},
	} {
		if err := checkUpdate(tc.cfg); (err == nil) != tc.ok {
			t.Errorf("%s: checkUpdate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
