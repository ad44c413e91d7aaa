package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMetisRoundTrip(t *testing.T) {
	b := NewBuilder(4, 2)
	b.SetWeights(0, []int32{1, 0})
	b.SetWeights(1, []int32{2, 1})
	b.SetWeights(2, []int32{1, 1})
	b.SetWeights(3, []int32{3, 0})
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 2)
	g := b.Build()

	var buf bytes.Buffer
	if err := g.WriteMetis(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMetis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NV() != g.NV() || got.NE() != g.NE() || got.NCon != g.NCon {
		t.Fatalf("round trip: NV=%d NE=%d NCon=%d", got.NV(), got.NE(), got.NCon)
	}
	for v := 0; v < g.NV(); v++ {
		for j := 0; j < g.NCon; j++ {
			if got.Weight(v, j) != g.Weight(v, j) {
				t.Fatalf("vertex %d weight %d differs", v, j)
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edge weight preserved.
	for i, u := range got.Neighbors(0) {
		if u == 1 && got.EdgeWeights(0)[i] != 5 {
			t.Errorf("edge {0,1} weight = %d", got.EdgeWeights(0)[i])
		}
	}
}

func TestReadMetisPlainFormat(t *testing.T) {
	// The minimal header: no weights at all.
	src := `% tiny triangle
3 3
2 3
1 3
1 2
`
	g, err := ReadMetis(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NV() != 3 || g.NE() != 3 {
		t.Fatalf("NV=%d NE=%d", g.NV(), g.NE())
	}
	for v := 0; v < 3; v++ {
		if g.Weight(v, 0) != 1 {
			t.Error("default vertex weight should be 1")
		}
	}
}

func TestReadMetisEdgeWeightsOnly(t *testing.T) {
	src := `2 1 001
2 7
1 7
`
	g, err := ReadMetis(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NE() != 1 || g.EdgeWeights(0)[0] != 7 {
		t.Fatalf("edge weight lost: %v", g.AdjWgt)
	}
}

func TestReadMetisSingleListedEdge(t *testing.T) {
	// Non-conforming file that lists the edge only on one side.
	src := `2 1 001
2 4

`
	g, err := ReadMetis(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NE() != 1 {
		t.Fatalf("NE = %d, want 1", g.NE())
	}
}

func TestReadMetisErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ""},
		{"bad header", "x y\n"},
		{"vertex sizes unsupported", "2 1 100\n2\n1\n"},
		{"bad fmt", "2 1 0x1\n2\n1\n"},
		{"neighbor out of range", "2 1\n3\n1\n"},
		{"missing vertex line", "3 2\n2\n"},
		{"edge count mismatch", "3 5\n2\n1 3\n2\n"},
		{"dangling edge weight", "2 1 001\n2\n1 7 9\n"},
		{"bad ncon", "2 1 011 0\n1 2 1\n1 1 1\n"},
	}
	for _, c := range cases {
		if _, err := ReadMetis(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// Header counts and weights come from the file: values past int32 must
// be rejected, and counts the body does not back must not be allocated
// up front.
func TestReadMetisHostileInput(t *testing.T) {
	cases := []struct{ name, src string }{
		{"vertex weight overflow", "2 1 010\n2147483648 2\n1 1\n"},
		{"edge weight overflow", "2 1 001\n2 2147483648\n1 2147483648\n"},
		{"vertex count past int32", "3000000000 0\n3000000000\n"},
		{"vertex count without lines", "2000000000 0\n\n"},
		{"constraint count without weights", "1 0 010 1000000000\n1\n"},
		{"edge count without edges", "1 1000000000000\n\n"},
	}
	for _, c := range cases {
		if _, err := ReadMetis(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// Property: WriteMetis/ReadMetis is the identity on random graphs.
func TestQuickMetisRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(30)
		g := randomGraph(r, nv, 1+r.Intn(3), 3*nv)
		var buf bytes.Buffer
		if err := g.WriteMetis(&buf); err != nil {
			return false
		}
		got, err := ReadMetis(&buf)
		if err != nil {
			return false
		}
		if got.NV() != g.NV() || got.NE() != g.NE() || got.NCon != g.NCon {
			return false
		}
		// Compare total weights and edge weight sums (structure is
		// checked by Validate inside the round trip).
		a, b := g.TotalWeights(), got.TotalWeights()
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
		return g.TotalEdgeWeight() == got.TotalEdgeWeight() && got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
