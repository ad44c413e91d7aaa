package partition

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// graphFromFuzz decodes arbitrary fuzzer bytes into a well-formed
// multi-constraint graph plus partitioning parameters. The decoding is
// total (any input yields either nil or a valid graph) and
// deterministic, so the fuzzer explores graph space through byte
// space. First-constraint weights are always >= 1, which is the
// precondition for the non-empty-parts invariant.
func graphFromFuzz(data []byte) (*graph.Graph, int, int64) {
	if len(data) < 4 {
		return nil, 0, 0
	}
	nv := 2 + int(data[0])%63  // 2..64 vertices
	ncon := 1 + int(data[1])%3 // 1..3 constraints
	k := 1 + int(data[2])%8    // 1..8 parts
	seed := int64(data[3])
	b := graph.NewBuilder(nv, ncon)
	for v := 0; v < nv; v++ {
		b.SetWeight(v, 0, 1)
	}
	rest := data[4:]
	for i := 0; i+1 < len(rest); i += 2 {
		u, v := int(rest[i])%nv, int(rest[i+1])%nv
		if u == v {
			// Self-pair: spend the bytes on a vertex weight instead, so
			// the fuzzer also explores lumpy and zero-total constraints.
			if ncon > 1 {
				b.SetWeight(u, 1+int(rest[i+1])%(ncon-1), int32(rest[i+1]%4))
			}
			continue
		}
		b.AddEdge(u, v, 1+int32(rest[i+1]%3))
	}
	return b.Build(), k, seed
}

// FuzzKWay feeds random graphs to the partitioner. For every input the
// partitioner must return without panicking, satisfy the partition
// invariants (labels in range, k parts non-empty for nv >= k, reported
// edge cut equal to an independent recomputation), and — since the
// parallel recursion claims bit-identical determinism — the forced-
// parallel run must match the strictly serial one label for label.
func FuzzKWay(f *testing.F) {
	f.Add([]byte("@\x02\x04\x2a0123456789abcdefghij"))
	f.Add([]byte("\x10\x01\x02\x07kwaykwaykway"))
	f.Add([]byte{8, 2, 3, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, k, seed := graphFromFuzz(data)
		if g == nil {
			return
		}
		opt := Options{K: k, Seed: seed, Imbalance: 0.05}
		serial, err := kwayAt(context.Background(), g, opt, serialCutoff)
		if err != nil {
			t.Fatalf("KWay(context.Background(), nv=%d k=%d): %v", g.NV(), k, err)
		}
		checkInvariants(t, g, serial, k, 0.05)

		opt.Workers = 2
		par, err := kwayAt(context.Background(), g, opt, 8)
		if err != nil {
			t.Fatalf("parallel KWay(context.Background(), nv=%d k=%d): %v", g.NV(), k, err)
		}
		for v := range serial {
			if par[v] != serial[v] {
				t.Fatalf("vertex %d: parallel label %d != serial %d (nv=%d k=%d seed=%d)",
					v, par[v], serial[v], g.NV(), k, seed)
			}
		}
	})
}

// FuzzRepartition feeds random graphs with deliberately unbalanced
// labels to the diffusion repartitioner: a vertex starts in part 0
// unless its byte of the input is odd, so short inputs pile most of
// the graph into one part. Labels must stay in [0, k), a second run
// must return the same labels, and balance may not get worse than the
// partition-invariant flag rule allows: no part ends above its flag
// cap on a constraint unless it started at least that heavy there.
func FuzzRepartition(f *testing.F) {
	f.Add([]byte("@\x02\x04\x2a0123456789abcdefghij"))
	f.Add([]byte("\x30\x02\x07\x05\x01\x03\x05\x07\x11\x13\x15\x17\x19\x1b"))
	f.Add([]byte{8, 1, 3, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, k, seed := graphFromFuzz(data)
		if g == nil {
			return
		}
		start := make([]int32, g.NV())
		for v := range start {
			if i := 4 + v; i < len(data) && data[i]&1 == 1 {
				start[v] = int32(int(data[i]>>1) % k)
			}
		}
		opt := Options{K: k, Seed: seed, Imbalance: 0.05}
		run := func() []int32 {
			labels := append([]int32(nil), start...)
			if err := Repartition(g, labels, opt); err != nil {
				t.Fatalf("Repartition(nv=%d k=%d): %v", g.NV(), k, err)
			}
			return labels
		}
		labels, again := run(), run()
		for v, l := range labels {
			if l < 0 || int(l) >= k {
				t.Fatalf("vertex %d has label %d outside [0,%d)", v, l, k)
			}
			if again[v] != l {
				t.Fatalf("vertex %d: second run label %d != first %d (nv=%d k=%d seed=%d)",
					v, again[v], l, g.NV(), k, seed)
			}
		}
		caps := flagCaps(g, k, opt.Imbalance)
		before, _ := accumPartitionWeights(g, start, k)
		after, _ := accumPartitionWeights(g, labels, k)
		for p := range after {
			for j, w := range after[p] {
				if float64(w) > caps[j] && w > before[p][j] {
					t.Fatalf("part %d constraint %d grew %d -> %d past its flag cap %.1f (nv=%d k=%d seed=%d)",
						p, j, before[p][j], w, caps[j], g.NV(), k, seed)
				}
			}
		}
	})
}
