package mesh

import (
	"bytes"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	m := unitQuadMesh()
	m.Surface = []SurfaceElem{{Nodes: []int32{0, 1}, Elem: 0}, {Nodes: []int32{1, 2}, Elem: -1}}
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != 2 || got.NumNodes() != 9 || got.NumElems() != 4 || len(got.Surface) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for i, p := range m.Coords {
		if got.Coords[i] != p {
			t.Fatalf("coord %d differs", i)
		}
	}
	if got.Surface[1].Elem != -1 {
		t.Error("surf elem -1 lost")
	}
}

func TestTextRoundTrip3D(t *testing.T) {
	m := unitHexMesh()
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != 3 || got.NumElems() != 1 || got.Types[0] != Hex8 {
		t.Fatalf("3D round trip wrong: %+v", got)
	}
}

func TestReadTextTolerant(t *testing.T) {
	src := `
# a triangle with a comment

mesh 2
node 0 0
node 1 0
node 0 1
elem tri3 0 1 2
surf -1 0 1
`
	m, err := ReadText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 3 || m.NumElems() != 1 || len(m.Surface) != 1 {
		t.Fatalf("parsed: %+v", m)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"missing header", "node 0 0\n"},
		{"bad dim", "mesh 4\n"},
		{"duplicate header", "mesh 2\nmesh 2\n"},
		{"short node", "mesh 3\nnode 1 2\n"},
		{"bad coord", "mesh 2\nnode a b\n"},
		{"unknown type", "mesh 2\nelem pent5 0 1 2 3 4\n"},
		{"wrong arity", "mesh 2\nnode 0 0\nnode 1 0\nnode 0 1\nelem tri3 0 1\n"},
		{"bad node id", "mesh 2\nnode 0 0\nelem tri3 0 x 2\n"},
		{"unknown directive", "mesh 2\nfrob 1 2\n"},
		{"out of range node", "mesh 2\nnode 0 0\nnode 1 0\nnode 0 1\nelem tri3 0 1 9\n"},
		{"empty", ""},
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestTextBinaryAgree(t *testing.T) {
	m := unitQuadMesh()
	m.Surface = []SurfaceElem{{Nodes: []int32{0, 1}, Elem: 0}}
	var tb, bb bytes.Buffer
	if err := m.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteTo(&bb); err != nil {
		t.Fatal(err)
	}
	mt, err := ReadText(&tb)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := ReadMesh(&bb)
	if err != nil {
		t.Fatal(err)
	}
	if mt.NumNodes() != mb.NumNodes() || mt.NumElems() != mb.NumElems() {
		t.Fatal("text and binary decoders disagree")
	}
	for i := range mt.Coords {
		if mt.Coords[i] != mb.Coords[i] {
			t.Fatalf("coord %d: %v vs %v", i, mt.Coords[i], mb.Coords[i])
		}
	}
}

// FuzzReadText feeds arbitrary bytes to ReadText. A mesh it accepts must
// survive a WriteText/ReadText round trip unchanged.
func FuzzReadText(f *testing.F) {
	f.Add([]byte("mesh 2\nnode 0 0\nnode 1 0\nnode 0 1\nelem tri3 0 1 2\nsurf -1 0 1\n"))
	f.Add([]byte("# tet\nmesh 3\nnode 0 0 0\nnode 1 0 0\nnode 0 1 0\nnode 0 0 1\nelem tet4 0 1 2 3\n"))
	f.Add([]byte("mesh 3\nnode 1e308 -0 NaN\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := m.WriteText(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadText(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written mesh: %v\n%s", err, first.String())
		}
		if err := back.WriteText(&second); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("round trip changed the mesh:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}
