package partition

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// refHeap is the container/heap gain heap the typed one replaced; its
// pop order is the reference, ties included.
type refHeap []gainItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(gainItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Gains drawn from a handful of values make most comparisons ties, so
// any departure from container/heap's sift order changes which vertex
// pops first.
func TestGainHeapMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for round := 0; round < 200; round++ {
		var typed gainHeap
		var ref refHeap
		spread := 1 + r.Intn(6)
		for op := 0; op < 400; op++ {
			if len(typed) == 0 || r.Intn(5) < 3 {
				it := gainItem{v: int32(op), gain: int64(r.Intn(spread) - spread/2)}
				typed.push(it)
				heap.Push(&ref, it)
				continue
			}
			got, want := typed.pop(), heap.Pop(&ref).(gainItem)
			if got != want {
				t.Fatalf("round %d op %d: pop %+v, container/heap pops %+v", round, op, got, want)
			}
		}
		for len(typed) > 0 {
			if got, want := typed.pop(), heap.Pop(&ref).(gainItem); got != want {
				t.Fatalf("round %d drain: pop %+v, container/heap pops %+v", round, got, want)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("round %d: reference heap still holds %d items", round, ref.Len())
		}
	}
}

// permute must return rand.Perm's permutation and leave the generator
// in the same state, or every later draw of the bisection would shift.
func TestPermuteMatchesRandPerm(t *testing.T) {
	ws := newWorkspace(300)
	for _, n := range []int{0, 1, 2, 7, 64, 300} {
		for seed := int64(0); seed < 5; seed++ {
			a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want := a.Perm(n)
			got := ws.permute(b, n)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: permute %v, rand.Perm %v", n, seed, got, want)
			}
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("n=%d seed=%d: generator state diverged after the permutation", n, seed)
			}
		}
	}
}

// checkBisectionState recomputes every maintained quantity of b from
// scratch: per-vertex gains, cut, side weights and side counts.
func checkBisectionState(t *testing.T, b *bisection, ctx string) {
	t.Helper()
	g := b.g
	var cut int64
	var side [2][]int64
	side[0], side[1] = make([]int64, g.NCon), make([]int64, g.NCon)
	var nside [2]int
	for v := 0; v < g.NV(); v++ {
		s := b.where[v]
		var gain int64
		wgt := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if b.where[u] == s {
				gain -= int64(wgt[i])
			} else {
				gain += int64(wgt[i])
				if int(u) > v {
					cut += int64(wgt[i])
				}
			}
		}
		if b.gain[v] != gain {
			t.Fatalf("%s: gain[%d] = %d, recomputed %d", ctx, v, b.gain[v], gain)
		}
		for j, w := range g.Weights(v) {
			side[s][j] += int64(w)
		}
		nside[s]++
	}
	if b.cut != cut {
		t.Fatalf("%s: cut = %d, recomputed %d", ctx, b.cut, cut)
	}
	if !slices.Equal(b.side[0], side[0]) || !slices.Equal(b.side[1], side[1]) || b.nside != nside {
		t.Fatalf("%s: sides %v/%v, recomputed %v/%v", ctx, b.side, b.nside, side, nside)
	}
}

// Gains and cut are maintained incrementally by move, including the
// rollback moves that end every FM pass; after any mix of random moves,
// undo sequences, FM passes, resets and re-assignments they must equal
// a from-scratch recomputation.
func TestIncrementalGainsMatchRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for round := 0; round < 60; round++ {
		g, _ := randConnGraph(r)
		n := g.NV()
		ws := newWorkspace(n)
		b := newBisection(g, 0.3+0.4*r.Float64(), 0.03, n)
		checkBisectionState(t, b, "new")
		for step := 0; step < 20; step++ {
			var trail []int
			for i := 0; i < 1+r.Intn(n); i++ {
				v := r.Intn(n)
				b.move(v)
				trail = append(trail, v)
			}
			checkBisectionState(t, b, "random moves")
			for i := len(trail) - 1; i >= len(trail)/2; i-- {
				b.move(trail[i])
			}
			checkBisectionState(t, b, "rollback")
			fmPass(b, r, ws)
			checkBisectionState(t, b, "fm pass")
		}
		b.reset()
		checkBisectionState(t, b, "reset")
		growBisection(b, r, ws)
		checkBisectionState(t, b, "grow")

		where := make([]int8, n)
		for v := range where {
			where[v] = int8(r.Intn(2))
		}
		b.assign(g, where)
		checkBisectionState(t, b, "assign")
		refineFM(b, 4, r, ws)
		checkBisectionState(t, b, "refine")
	}
}

// The epoch stamps must behave like fresh arrays across a wrap of the
// counter: marks left by the pass before the wrap must not leak into
// the passes after it.
func TestWorkspaceEpochWrap(t *testing.T) {
	g := grid(12, 12, 2)
	run := func(ws *workspace) []int8 {
		// Random sides leave FM plenty to improve in every pass.
		rng := rand.New(rand.NewSource(5))
		where := make([]int8, g.NV())
		for v := range where {
			where[v] = int8(rng.Intn(2))
		}
		b := newBisection(g, 0.5, 0.03, g.NV())
		b.assign(g, where)
		refineFM(b, 8, rng, ws)
		return where
	}
	fresh := run(newWorkspace(g.NV()))
	// The next pass wraps the counter, and every vertex carries marks
	// from the first epochs after the previous wrap, which the new
	// epochs would otherwise alias.
	ws := newWorkspace(g.NV())
	ws.epoch = ^uint32(0)
	for i := range ws.moved {
		ws.moved[i], ws.inHeap[i] = 1, 2
	}
	if got := run(ws); !slices.Equal(got, fresh) {
		t.Fatal("refinement across an epoch wrap differs from a fresh workspace")
	}
	if ws.epoch > 8 {
		t.Fatalf("epoch %d: the refinement never wrapped the counter", ws.epoch)
	}
}
