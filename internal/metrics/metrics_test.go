package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/partition"
)

// star builds a star graph: center 0 with n leaves.
func star(n int) *graph.Graph {
	b := graph.NewBuilder(n+1, 1)
	for v := 0; v <= n; v++ {
		b.SetWeight(v, 0, 1)
	}
	for v := 1; v <= n; v++ {
		b.AddEdge(0, v, 1)
	}
	return b.Build()
}

func TestCommVolumeStar(t *testing.T) {
	g := star(6)
	// Center in partition 0, leaves alternate 1 and 2.
	labels := []int32{0, 1, 2, 1, 2, 1, 2}
	// Center must be sent to partitions 1 and 2 (2 units); every leaf
	// has its lone neighbor in partition 0 (6 units).
	if got := CommVolume(g, labels, 3); got != 8 {
		t.Errorf("CommVolume = %d, want 8", got)
	}
	// One partition: zero volume.
	zero := make([]int32, 7)
	if got := CommVolume(g, zero, 1); got != 0 {
		t.Errorf("CommVolume = %d, want 0", got)
	}
}

func TestCommVolumeVsEdgeCut(t *testing.T) {
	// Communication volume counts each (vertex, partition) pair once,
	// so it is at most twice the number of cut edges (for unit-weight
	// edges) and can be far less.
	g := star(10)
	labels := make([]int32, 11)
	for v := 1; v <= 10; v++ {
		labels[v] = 1
	}
	// One boundary vertex (the center) vs 10 cut edges.
	if got := CommVolume(g, labels, 2); got != 11 {
		// center->1 (1) + each leaf->0 (10)
		t.Errorf("CommVolume = %d, want 11", got)
	}
	if got := partition.EdgeCut(g, labels); got != 10 {
		t.Errorf("EdgeCut = %d, want 10", got)
	}
}

// TestEdgeCutWeighted checks the one edge-cut implementation
// (partition.EdgeCut) that the Section 5.1 metrics report.
func TestEdgeCutWeighted(t *testing.T) {
	b := graph.NewBuilder(3, 1)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 3)
	g := b.Build()
	if got := partition.EdgeCut(g, []int32{0, 0, 1}); got != 3 {
		t.Errorf("EdgeCut = %d, want 3", got)
	}
	if got := partition.EdgeCut(g, []int32{0, 1, 0}); got != 8 {
		t.Errorf("EdgeCut = %d, want 8", got)
	}
}

func TestLoadImbalance(t *testing.T) {
	b := graph.NewBuilder(4, 2)
	b.SetWeights(0, []int32{1, 0})
	b.SetWeights(1, []int32{1, 0})
	b.SetWeights(2, []int32{1, 2})
	b.SetWeights(3, []int32{1, 2})
	g := b.Build()
	// Partition {0,1} vs {2,3}: first constraint perfectly balanced,
	// second constraint all on one side.
	imb := LoadImbalance(g, []int32{0, 0, 1, 1}, 2)
	if imb[0] != 1.0 {
		t.Errorf("imb[0] = %v", imb[0])
	}
	if imb[1] != 2.0 {
		t.Errorf("imb[1] = %v", imb[1])
	}
}

// Property: CommVolume <= 2 * number of cut edges (unit edge weights),
// and CommVolume == 0 iff EdgeCut == 0.
func TestQuickVolumeCutRelation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		k := 1 + r.Intn(5)
		b := graph.NewBuilder(n, 1)
		for v := 0; v < n; v++ {
			b.SetWeight(v, 0, 1)
		}
		for i := 0; i < 3*n; i++ {
			b.AddEdge(r.Intn(n), r.Intn(n), 1)
		}
		g := b.Build()
		labels := make([]int32, n)
		for v := range labels {
			labels[v] = int32(r.Intn(k))
		}
		vol := CommVolume(g, labels, k)
		// Cut in edge count (all built weights deduplicate to >= 1).
		var cutEdges int64
		for v := 0; v < n; v++ {
			for _, u := range g.Neighbors(v) {
				if int(u) > v && labels[u] != labels[v] {
					cutEdges++
				}
			}
		}
		if vol > 2*cutEdges {
			return false
		}
		return (vol == 0) == (cutEdges == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
