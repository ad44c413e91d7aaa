package partition

import (
	"context"
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// level is one rung of the multilevel hierarchy.
type level struct {
	g    *graph.Graph
	cmap []int32 // fine vertex -> coarse vertex of the next level
}

// coarsen builds the multilevel hierarchy of g down to roughly
// coarsenTo vertices using heavy-edge matching. The returned slice
// starts with the original graph; the last entry is the coarsest.
// Cancelling ctx stops the level loop early; the caller must check
// ctx before using the (then incomplete) hierarchy. ws must have room
// for g's vertices; the hierarchy lives in ws's ladder, which the next
// coarsen on ws overwrites.
func coarsen(ctx context.Context, g *graph.Graph, coarsenTo int, rng *rand.Rand, ws *workspace) []level {
	ws.levels[0].g = g
	nl := 1
	// Cap on a coarse vertex's weight per constraint, to keep the
	// coarsest graph partitionable: a handful of average coarse
	// vertices per target size.
	total := g.TotalWeights()
	maxW := make([]int64, g.NCon)
	for j := range maxW {
		maxW[j] = total[j] / int64(max(coarsenTo, 1)) * 3
		if maxW[j] < 1 {
			maxW[j] = 1
		}
	}

	cur := g
	for cur.NV() > coarsenTo && ctx.Err() == nil {
		match := heavyEdgeMatch(cur, maxW, rng, ws)
		// Count coarse vertices and relabel.
		ncoarse := 0
		cmap := slices.Grow(ws.levels[nl-1].cmap[:0], cur.NV())[:cur.NV()]
		ws.levels[nl-1].cmap = cmap
		for v := range cmap {
			cmap[v] = -1
		}
		for v := 0; v < cur.NV(); v++ {
			if cmap[v] >= 0 {
				continue
			}
			cmap[v] = int32(ncoarse)
			if u := match[v]; u >= 0 && int(u) != v {
				cmap[u] = int32(ncoarse)
			}
			ncoarse++
		}
		if float64(ncoarse) > 0.95*float64(cur.NV()) {
			// Matching stalled (e.g. star graphs); stop coarsening.
			break
		}
		if nl == len(ws.levels) {
			ws.levels = append(ws.levels, level{g: new(graph.Graph)})
		}
		next := ws.levels[nl].g
		cur.CollapseInto(next, cmap, ncoarse, &ws.gs)
		nl++
		cur = next
	}
	return ws.levels[:nl]
}

// heavyEdgeMatch computes a matching of the graph visiting vertices in
// random order and pairing each unmatched vertex with its unmatched
// neighbor of maximum edge weight, subject to the coarse-vertex weight
// cap. match[v] = partner (or v itself when unmatched). The result
// lives in ws.match and is overwritten by the next call.
func heavyEdgeMatch(g *graph.Graph, maxW []int64, rng *rand.Rand, ws *workspace) []int32 {
	n := g.NV()
	match := ws.match[:n]
	for v := range match {
		match[v] = -1
	}
	for _, v := range permute(rng, ws.perm[:n]) {
		if match[v] >= 0 {
			continue
		}
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		best, bestW := int32(-1), int32(-1)
		for i, u := range adj {
			if match[u] >= 0 {
				continue
			}
			if wgt[i] > bestW && fitsCap(g, v, int(u), maxW) {
				best, bestW = u, wgt[i]
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = int32(v)
		} else {
			match[v] = int32(v)
		}
	}
	return match
}

// fitsCap reports whether merging u and v stays under the coarse
// weight cap in every constraint.
func fitsCap(g *graph.Graph, v, u int, maxW []int64) bool {
	wv, wu := g.Weights(v), g.Weights(u)
	for j := range maxW {
		if int64(wv[j])+int64(wu[j]) > maxW[j] {
			return false
		}
	}
	return true
}
