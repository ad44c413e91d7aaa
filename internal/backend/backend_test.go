package backend

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
)

// gridInput builds a jittered nx×ny×nz grid graph with ncon vertex
// weights (component 0 always >= 1) and 6-neighborhood edges — a stand-
// in for a nodal mesh graph that every backend, graph-based or
// geometric, can partition.
func gridInput(r *rand.Rand, nx, ny, nz, ncon int) Input {
	n := nx * ny * nz
	b := graph.NewBuilder(n, ncon)
	coords := make([]geom.Point, n)
	id := func(x, y, z int) int { return (z*ny+y)*nx + x }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := id(x, y, z)
				coords[v] = geom.P3(
					float64(x)+0.3*r.Float64(),
					float64(y)+0.3*r.Float64(),
					float64(z)+0.3*r.Float64())
				b.SetWeight(v, 0, 1+int32(r.Intn(3)))
				for j := 1; j < ncon; j++ {
					if r.Intn(4) == 0 {
						b.SetWeight(v, j, int32(1+r.Intn(3)))
					}
				}
				if x > 0 {
					b.AddEdge(v, id(x-1, y, z), 1)
				}
				if y > 0 {
					b.AddEdge(v, id(x, y-1, z), 1)
				}
				if z > 0 {
					b.AddEdge(v, id(x, y, z-1), 1)
				}
			}
		}
	}
	return Input{Graph: b.Build(), Coords: coords, Dim: 3}
}

// oracleCut recomputes the edge cut straight off the CSR arrays — the
// independent oracle the per-backend suite compares against.
func oracleCut(g *graph.Graph, labels []int32) int64 {
	var cut int64
	for v := 0; v < g.NV(); v++ {
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			if u := g.Adj[i]; labels[v] != labels[u] {
				cut += int64(g.AdjWgt[i])
			}
		}
	}
	return cut / 2
}

// TestBackendInvariants runs the shared property suite against every
// registered backend through the Partitioner interface: labels in
// range, every part non-empty, deterministic reruns, and per-constraint
// load bounds scoped by the backend's capability flags.
func TestBackendInvariants(t *testing.T) {
	for _, name := range Names() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(29))
			for _, tc := range []struct{ k, ncon int }{{2, 1}, {4, 2}, {9, 2}} {
				in := gridInput(r, 12, 10, 8, tc.ncon)
				opt := Options{K: tc.k, Seed: 5, Imbalance: 0.05}
				labels, err := p.Partition(context.Background(), in, opt)
				if err != nil {
					t.Fatalf("k=%d ncon=%d: %v", tc.k, tc.ncon, err)
				}
				n := in.Graph.NV()
				if len(labels) != n {
					t.Fatalf("k=%d: %d labels for %d vertices", tc.k, len(labels), n)
				}
				counts := make([]int, tc.k)
				for v, l := range labels {
					if l < 0 || int(l) >= tc.k {
						t.Fatalf("k=%d: vertex %d label %d out of range", tc.k, v, l)
					}
					counts[l]++
				}
				for part, c := range counts {
					if c == 0 {
						t.Errorf("k=%d ncon=%d: part %d empty", tc.k, tc.ncon, part)
					}
				}

				checkLoads(t, in, labels, tc.k, p.Caps())

				if cut := oracleCut(in.Graph, labels); cut < 0 || (tc.k > 1 && cut == 0) {
					t.Errorf("k=%d: implausible edge cut %d", tc.k, cut)
				}

				again, err := p.Partition(context.Background(), in, opt)
				if err != nil {
					t.Fatal(err)
				}
				for v := range labels {
					if again[v] != labels[v] {
						t.Fatalf("k=%d ncon=%d: rerun diverged at vertex %d", tc.k, tc.ncon, v)
					}
				}
			}
		})
	}
}

// checkLoads asserts per-constraint balance: every component for
// MultiConstraint backends, only component 0 otherwise. The bound is
// deliberately loose — each backend has its own tight bound in its own
// package; here the property is "no part grossly overloaded".
func checkLoads(t *testing.T, in Input, labels []int32, k int, caps Caps) {
	t.Helper()
	g := in.Graph
	ncheck := 1
	if caps.MultiConstraint {
		ncheck = g.NCon
	}
	for j := 0; j < ncheck; j++ {
		loads := make([]int64, k)
		var total, maxw int64
		for v := 0; v < g.NV(); v++ {
			w := int64(g.Weight(v, j))
			loads[labels[v]] += w
			total += w
			if w > maxw {
				maxw = w
			}
		}
		if total == 0 {
			continue
		}
		limit := 1.5*float64(total)/float64(k) + float64(maxw) + 1
		for part := 0; part < k; part++ {
			if float64(loads[part]) > limit {
				t.Errorf("constraint %d: part %d load %d exceeds %.1f (avg %.1f)",
					j, part, loads[part], limit, float64(total)/float64(k))
			}
		}
	}
}

// TestBackendCutOracle cross-checks that, for every backend, the cut of
// the produced labels equals the oracle recomputation when measured
// twice (catches any backend returning aliased or mutated label
// slices).
func TestBackendCutOracle(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	in := gridInput(r, 10, 9, 7, 2)
	for _, name := range Names() {
		p, _ := Lookup(name)
		labels, err := p.Partition(context.Background(), in, Options{K: 6, Seed: 3, Imbalance: 0.05})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c1 := oracleCut(in.Graph, labels)
		c2 := oracleCut(in.Graph, labels)
		if c1 != c2 {
			t.Errorf("%s: oracle cut unstable: %d vs %d", name, c1, c2)
		}
	}
}

func TestLookup(t *testing.T) {
	def, err := Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != "multilevel" {
		t.Errorf("empty name resolved to %q, want multilevel", def.Name())
	}
	if _, err := Lookup("quadtree"); err == nil {
		t.Error("unknown backend accepted")
	}
	want := []string{"bkmeans", "multilevel", "rcb", "sfc"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestNeedsCoordsValidation(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	in := gridInput(r, 4, 4, 4, 1)
	in.Coords = nil
	for _, name := range Names() {
		p, _ := Lookup(name)
		_, err := p.Partition(context.Background(), in, Options{K: 2, Seed: 1})
		if p.Caps().NeedsCoords && err == nil {
			t.Errorf("%s: accepted nil coords", name)
		}
		if !p.Caps().NeedsCoords && err != nil {
			t.Errorf("%s: rejected nil coords: %v", name, err)
		}
	}
}

// TestBackendCancelledContext: every backend checks its ctx once at
// entry, so a cancelled one returns the context's error and no labels.
func TestBackendCancelledContext(t *testing.T) {
	in := gridInput(rand.New(rand.NewSource(41)), 6, 5, 4, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		p, _ := Lookup(name)
		labels, err := p.Partition(ctx, in, Options{K: 3, Seed: 1})
		if !errors.Is(err, context.Canceled) || labels != nil {
			t.Errorf("%s: Partition under a cancelled ctx = (%d labels, %v), want context.Canceled", name, len(labels), err)
		}
	}
}
