// Command mkcorpus regenerates the checked-in fuzz seed corpora under
// internal/partition/testdata/fuzz, internal/dtree/testdata/fuzz,
// internal/sfc/testdata/fuzz, internal/bkmeans/testdata/fuzz,
// internal/graph/testdata/fuzz, and internal/mesh/testdata/fuzz.
// Run from the repo root: go run ./tools/mkcorpus
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dtree"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mesh"
)

func write(dir, name string, data []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		log.Fatal(err)
	}
}

func main() {
	kwayDir := filepath.Join("internal", "partition", "testdata", "fuzz", "FuzzKWay")
	// Mirrors the f.Add seeds: a mid-size graph, a tiny one, and a chain
	// with explicit edges.
	write(kwayDir, "seed-dense", []byte("@\x02\x04\x2a0123456789abcdefghij"))
	write(kwayDir, "seed-tiny", []byte("\x10\x01\x02\x07kwaykwaykway"))
	write(kwayDir, "seed-chain", []byte{8, 2, 3, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7})

	treeDir := filepath.Join("internal", "dtree", "testdata", "fuzz", "FuzzTreeDeserialize")
	r := rand.New(rand.NewSource(11))
	pts := make([]geom.Point, 40)
	labels := make([]int32, 40)
	for i := range pts {
		pts[i] = geom.P3(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		labels[i] = int32(r.Intn(3))
	}
	tree, err := dtree.Build(pts, labels, 3, 3, dtree.Options{Mode: dtree.Descriptor})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	write(treeDir, "seed-valid", buf.Bytes())
	write(treeDir, "seed-truncated", buf.Bytes()[:buf.Len()/2])
	write(treeDir, "seed-magic-only", []byte("ERTD"))

	// Mirrors sfc.FuzzHilbertKey's f.Add seeds: (dims, bits) selectors
	// followed by big-endian coordinate bytes.
	sfcDir := filepath.Join("internal", "sfc", "testdata", "fuzz", "FuzzHilbertKey")
	write(sfcDir, "seed-2d", []byte{2, 4, 1, 2, 3, 4, 5, 6, 7, 8})
	write(sfcDir, "seed-3d", []byte{3, 7, 0xff, 0x01, 0x80, 0x7f, 0xaa, 0x55, 0x10, 0x20})
	write(sfcDir, "seed-deep", []byte{3, 21, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})

	// Mirrors bkmeans.FuzzBKMeansAssign's f.Add seeds: a cluster-count
	// byte followed by (x, y, weight) triples.
	bkDir := filepath.Join("internal", "bkmeans", "testdata", "fuzz", "FuzzBKMeansAssign")
	write(bkDir, "seed-small", []byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	write(bkDir, "seed-heavy", []byte{1, 0xff, 0xff, 0xff, 0x01, 0x02})
	write(bkDir, "seed-coincident", []byte{8, 5, 5, 5, 5, 9, 9, 9, 9, 1, 1, 1, 1, 200, 200, 0, 0})

	// Mirrors graph.FuzzBuilder's f.Add seeds: vertex count, constraint
	// selector, then (u, v, w) edge triples.
	builderDir := filepath.Join("internal", "graph", "testdata", "fuzz", "FuzzBuilder")
	write(builderDir, "seed-empty", []byte{0, 0})
	write(builderDir, "seed-parallel", []byte{5, 1, 0, 1, 2, 1, 0, 3, 2, 2, 9, 4, 3, 1})
	write(builderDir, "seed-star", []byte{64, 2, 0, 9, 1, 9, 0, 1, 0, 10, 1, 0, 11, 1, 11, 0, 5})

	// METIS files for graph.FuzzReadMetis: what WriteMetis emits for a
	// two-constraint weighted graph with an isolated vertex, the plain
	// and edge-weighted formats, a file listing an edge only once, and
	// a truncated body.
	metisDir := filepath.Join("internal", "graph", "testdata", "fuzz", "FuzzReadMetis")
	b := graph.NewBuilder(5, 2)
	for v := 0; v < 5; v++ {
		b.SetWeights(v, []int32{int32(1 + v), int32(v % 2)})
	}
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 3)
	b.AddEdge(2, 3, 2)
	buf.Reset()
	if err := b.Build().WriteMetis(&buf); err != nil {
		log.Fatal(err)
	}
	written := append([]byte(nil), buf.Bytes()...)
	write(metisDir, "seed-written", written)
	write(metisDir, "seed-truncated", written[:len(written)/2])
	write(metisDir, "seed-plain", []byte("% path\n3 2\n2\n1 3\n2\n"))
	write(metisDir, "seed-edge-weights", []byte("2 1 001\n2 7\n1 7\n"))
	write(metisDir, "seed-listed-once", []byte("3 2 010\n4 2\n5 3\n6\n"))

	// Mesh files for mesh.FuzzReadText and mesh.FuzzReadMesh: a text
	// mesh, its binary encoding and a truncated copy, and a 10-byte
	// binary header claiming 2^28 nodes.
	text := "mesh 2\nnode 0 0\nnode 1 0\nnode 1 1\nnode 2 0\nelem tri3 0 1 2\nelem tri3 1 3 2\nsurf 0 0 1\nsurf -1 1 3\n"
	write(filepath.Join("internal", "mesh", "testdata", "fuzz", "FuzzReadText"), "seed-valid", []byte(text))
	m, err := mesh.ReadText(strings.NewReader(text))
	if err != nil {
		log.Fatal(err)
	}
	buf.Reset()
	if _, err := m.WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	meshDir := filepath.Join("internal", "mesh", "testdata", "fuzz", "FuzzReadMesh")
	write(meshDir, "seed-valid", buf.Bytes())
	write(meshDir, "seed-truncated", buf.Bytes()[:buf.Len()/2])
	write(meshDir, "seed-huge-count", binary.LittleEndian.AppendUint32([]byte("HSEM\x01\x03"), 1<<28))
}
