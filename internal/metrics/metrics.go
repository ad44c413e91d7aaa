// Package metrics computes the partition-quality quantities reported
// in the paper's evaluation (Section 5.1): total communication volume
// (FEComm) and per-constraint load imbalance. The edge cut is
// partition.EdgeCut.
package metrics

import (
	"repro/internal/graph"
)

// CommVolume returns the total communication volume of a k-way
// partitioning of g: the sum over vertices v of the number of distinct
// partitions other than v's own that contain a neighbor of v. This is
// exactly how many copies of nodal data must cross partition
// boundaries each iteration, and is the paper's FEComm metric.
func CommVolume(g *graph.Graph, labels []int32, k int) int64 {
	var vol int64
	seen := make([]int32, k) // stamp per partition
	stamp := int32(0)
	for v := 0; v < g.NV(); v++ {
		stamp++
		own := labels[v]
		for _, u := range g.Neighbors(v) {
			if p := labels[u]; p != own && seen[p] != stamp {
				seen[p] = stamp
				vol++
			}
		}
	}
	return vol
}

// LoadImbalance returns max_i w_j(V_i) / (w_j(V)/k) for each weight
// component j (1.0 for components with zero total weight).
func LoadImbalance(g *graph.Graph, labels []int32, k int) []float64 {
	pw := make([][]int64, k)
	for p := range pw {
		pw[p] = make([]int64, g.NCon)
	}
	for v := 0; v < g.NV(); v++ {
		w := g.Weights(v)
		for j, wj := range w {
			pw[labels[v]][j] += int64(wj)
		}
	}
	total := g.TotalWeights()
	out := make([]float64, g.NCon)
	for j := range out {
		if total[j] == 0 {
			out[j] = 1
			continue
		}
		var worst int64
		for p := 0; p < k; p++ {
			if pw[p][j] > worst {
				worst = pw[p][j]
			}
		}
		out[j] = float64(worst) * float64(k) / float64(total[j])
	}
	return out
}
