package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// refBuild is the sort-based construction Build replaced, kept as the
// reference the linear-time Build must match byte for byte.
func refBuild(b *Builder) *Graph {
	m := len(b.us)
	type packed struct {
		key uint64
		w   int32
	}
	recs := make([]packed, m)
	for i := range recs {
		recs[i] = packed{key: uint64(b.us[i])<<32 | uint64(uint32(b.vs[i])), w: b.ws[i]}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })

	type edge struct {
		u, v, w int32
	}
	uniq := make([]edge, 0, m)
	for _, r := range recs {
		u, v := int32(r.key>>32), int32(uint32(r.key))
		if n := len(uniq); n > 0 && uniq[n-1].u == u && uniq[n-1].v == v {
			uniq[n-1].w += r.w
			continue
		}
		uniq = append(uniq, edge{u, v, r.w})
	}

	g := &Graph{
		NCon: b.ncon,
		Xadj: make([]int32, b.nv+1),
		VWgt: append([]int32(nil), b.vwgt...),
	}
	deg := make([]int32, b.nv)
	for _, e := range uniq {
		deg[e.u]++
		deg[e.v]++
	}
	for v := 0; v < b.nv; v++ {
		g.Xadj[v+1] = g.Xadj[v] + deg[v]
	}
	g.Adj = make([]int32, 2*len(uniq))
	g.AdjWgt = make([]int32, 2*len(uniq))
	pos := make([]int32, b.nv)
	copy(pos, g.Xadj[:b.nv])
	for _, e := range uniq {
		g.Adj[pos[e.u]], g.AdjWgt[pos[e.u]] = e.v, e.w
		pos[e.u]++
		g.Adj[pos[e.v]], g.AdjWgt[pos[e.v]] = e.u, e.w
		pos[e.v]++
	}
	return g
}

// checkBuild builds b with Build and refBuild and fails unless both
// give the same valid graph.
func checkBuild(t testing.TB, b *Builder) *Graph {
	t.Helper()
	got, want := b.Build(), refBuild(b)
	if err := got.Validate(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Build differs from refBuild:\n got %+v\nwant %+v", got, want)
	}
	return got
}

// randomMultigraph draws a builder whose edges repeat a small pool of
// vertex pairs in both directions, mixed with self-loops, over a vertex
// range wider than the pool touches (so some vertices stay isolated).
func randomMultigraph(r *rand.Rand) *Builder {
	nv := r.Intn(80)
	b := NewBuilder(nv, 1+r.Intn(3))
	for i := range b.vwgt {
		b.vwgt[i] = int32(r.Intn(7))
	}
	if nv == 0 {
		return b
	}
	touched := 1 + r.Intn(nv)
	pool := make([][2]int, 1+r.Intn(3*nv))
	for i := range pool {
		pool[i] = [2]int{r.Intn(touched), r.Intn(touched)}
	}
	for i, n := 0, r.Intn(8*nv); i < n; i++ {
		p := pool[r.Intn(len(pool))]
		if r.Intn(2) == 0 {
			p[0], p[1] = p[1], p[0]
		}
		b.AddEdge(p[0], p[1], int32(1+r.Intn(9)))
	}
	return b
}

func TestBuildMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		checkBuild(t, randomMultigraph(r))
	}
}

func TestBuildMatchesReferenceEmpty(t *testing.T) {
	for _, nv := range []int{0, 1, 5} {
		b := NewBuilder(nv, 2)
		if nv > 0 {
			b.AddEdge(nv-1, nv-1, 3) // dropped self-loop
		}
		checkBuild(t, b)
	}
}

// A star's hub row is far longer than any mesh row, so its sort goes
// past the insertion-sort cutoff; every leaf edge is added twice, in
// opposite directions.
func TestBuildMatchesReferenceStar(t *testing.T) {
	const leaves = 1500
	r := rand.New(rand.NewSource(5))
	b := NewBuilder(leaves+1, 1)
	for _, leaf := range r.Perm(leaves) {
		b.AddEdge(0, leaf+1, int32(1+leaf%4))
	}
	for _, leaf := range r.Perm(leaves) {
		b.AddEdge(leaf+1, 0, 1)
	}
	g := checkBuild(t, b)
	if g.Degree(0) != leaves {
		t.Fatalf("hub degree %d, want %d", g.Degree(0), leaves)
	}
}

// FuzzBuilder decodes bytes into a vertex count, a constraint count and
// (u, v, w) edge triples; Build must produce a valid graph equal to
// refBuild's.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{5, 1, 0, 1, 2, 1, 0, 3, 2, 2, 9, 4, 3, 1})
	f.Add([]byte{64, 2, 0, 9, 1, 9, 0, 1, 0, 10, 1, 0, 11, 1, 11, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nv, ncon := int(data[0]), 1+int(data[1]%3)
		b := NewBuilder(nv, ncon)
		for i := range b.vwgt {
			b.vwgt[i] = int32(i % 5)
		}
		for rest := data[2:]; nv > 0 && len(rest) >= 3; rest = rest[3:] {
			b.AddEdge(int(rest[0])%nv, int(rest[1])%nv, 1+int32(rest[2]%16))
		}
		checkBuild(t, b)
	})
}

// FuzzReadMetis feeds arbitrary bytes to ReadMetis. A graph it accepts
// must validate and survive a WriteMetis/ReadMetis round trip
// unchanged.
func FuzzReadMetis(f *testing.F) {
	f.Add([]byte("3 2\n2\n1 3\n2\n"))
	f.Add([]byte("% comment\n4 3 011 2\n1 0 2 5\n2 1 1 5 3 1\n1 1 2 1 4 2\n3 0 3 2\n"))
	f.Add([]byte("2 1 001\n2 7\n\n"))
	f.Add([]byte("3 1 010\n4\n5 3\n6 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadMetis(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph is invalid: %v", err)
		}
		var buf strings.Builder
		if err := g.WriteMetis(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadMetis(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-reading written graph: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(back, g) {
			t.Fatalf("round trip changed the graph:\n got %+v\nwant %+v", back, g)
		}
	})
}
