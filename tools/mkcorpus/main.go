// Command mkcorpus regenerates the checked-in fuzz seed corpora under
// internal/partition/testdata/fuzz, internal/dtree/testdata/fuzz,
// internal/sfc/testdata/fuzz, internal/bkmeans/testdata/fuzz,
// internal/graph/testdata/fuzz, internal/mesh/testdata/fuzz,
// internal/harness/testdata/fuzz, and internal/server/testdata/fuzz.
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

	// Mirrors graph.FuzzCollapse's f.Add seeds: vertex count,
	// constraint and group selectors, one label byte per vertex, then
	// (u, v, w) edge triples.
	collapseDir := filepath.Join("internal", "graph", "testdata", "fuzz", "FuzzCollapse")
	write(collapseDir, "seed-empty", []byte{0, 0, 1})
	write(collapseDir, "seed-path", []byte{6, 1, 3, 0, 1, 2, 1, 2, 1, 2, 1, 3, 3, 4, 2, 0, 1, 1, 2, 0, 2})
	write(collapseDir, "seed-parallel", []byte{9, 2, 5, 8, 0, 1, 0, 8, 4, 3, 4, 2, 7, 1, 1, 4, 0, 3, 2, 2, 4, 1, 0, 3})

	// Checkpoint files for harness.FuzzLoadCheckpoint (mirroring its
	// seeds; "@hash@" becomes the fuzz workload's config hash): a valid
	// two-experiment checkpoint with a saved report, a cursor without
	// rows, an old version, a histogram bucket out of range, and a
	// truncated file.
	ckptDir := filepath.Join("internal", "harness", "testdata", "fuzz", "FuzzLoadCheckpoint")
	write(ckptDir, "seed-valid", []byte(`{"version":2,"config_hash":"@hash@","experiments":[`+
		`{"cursor":1,"rows":[{"MCFEComm":10,"MCNTNodes":3,"MCNRemote":4,"MLFEComm":9,"MLM2MComm":2,"MLUpdComm":1,"MLNRemote":5}],`+
		`"evals":[{"mc_ns":1000,"ml_ns":900,"repart":"full","migrated":7}],"imb_fe":1.02,"imb_contact":1.1},`+
		`{"cursor":0,"rows":[],"evals":[],"imb_fe":0,"imb_contact":0}],`+
		`"obs":{"phases":[{"name":"partition","count":1,"total_ns":5,"avg_ns":5,"max_ns":5}],`+
		`"counters":[{"name":"checkpoint_writes","value":1}],"gauges":[{"name":"rb_workers","value":2}],`+
		`"hists":[{"name":"metric_eval","count":2,"sum":30,"min":10,"max":20,"p50":10,"p90":20,"p99":20,`+
		`"buckets":[{"i":3,"lo":8,"hi":16,"n":1},{"i":4,"lo":16,"hi":32,"n":1}]}]}}`))
	write(ckptDir, "seed-cursor-without-rows", []byte(`{"version":2,"config_hash":"@hash@","experiments":[{"cursor":3,"rows":[],"evals":[]},{"cursor":0}]}`))
	write(ckptDir, "seed-old-version", []byte(`{"version":1,"config_hash":"@hash@","experiments":[]}`))
	write(ckptDir, "seed-bad-bucket", []byte(`{"version":2,"config_hash":"@hash@","experiments":[{"cursor":0},{"cursor":0}],"obs":{"hists":[{"name":"h","count":1,"buckets":[{"i":-1,"n":1}]}]}}`))
	write(ckptDir, "seed-truncated", []byte(`{"version":2,"config_hash":"@hash@","experiments":[{"cursor":0`))

	// Job specs for server.FuzzJobSpec, mirroring its seeds: graph jobs
	// (plain, weighted with coordinates, offsets running past adj),
	// sweep jobs (plain, adaptive on a backend that cannot warm-start)
	// and an unknown kind.
	specDir := filepath.Join("internal", "server", "testdata", "fuzz", "FuzzJobSpec")
	write(specDir, "seed-graph", []byte(`{"kind":"graph","graph":{"ncon":1,"xadj":[0,1,3,4],"adj":[1,0,2,1]},"k":2,"seed":7}`))
	write(specDir, "seed-graph-coords", []byte(`{"kind":"graph","graph":{"ncon":2,"xadj":[0,1,2],"adj":[1,0],"adjwgt":[3,3],"vwgt":[1,0,1,1],"dim":2,"coords":[0,0,1,1]},"k":2,"backend":"rcb","imbalance":0.05}`))
	write(specDir, "seed-graph-row-past-adj", []byte(`{"kind":"graph","graph":{"ncon":1,"xadj":[0,10,10,10,3],"adj":[1,2,3]},"k":2}`))
	write(specDir, "seed-sweep", []byte(`{"kind":"sweep","sweep":{"snapshots":14,"ks":[2,3,4,6,8],"seed":11}}`))
	write(specDir, "seed-sweep-adaptive", []byte(`{"kind":"sweep","sweep":{"snapshots":3,"ks":[4],"backend":"rcb","adaptive":true},"timeout_ms":500}`))
	write(specDir, "seed-unknown-kind", []byte(`{"kind":"mesh","k":-1}`))
}
