package core_test

// The golden corpus: sha256 digests of every layer's observable output
// on small fixed inputs — the nodal graph, Decompose labels and tree
// bytes, the sfc and bkmeans backends' labels, the adaptive full rung,
// harness sweeps under each update strategy and worker count, engine
// traffic, and the ML+RCB baseline's labels. The digests live in one
// checked-in table, testdata/golden.sha256, so a refactor that claims
// to preserve behaviour proves it by leaving the table untouched.
// Update it only for a deliberate behaviour change, and say so in the
// change log:
//
//	GOLDEN_UPDATE=1 go test ./internal/core -run Golden

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/meshgen"
	"repro/internal/mlrcb"
	"repro/internal/partition"
	"repro/internal/sim"
)

const goldenTable = "testdata/golden.sha256"

var (
	goldenUpdate = os.Getenv("GOLDEN_UPDATE") == "1"
	goldenMu     sync.Mutex
	goldenGot    = map[string]string{}
)

func TestMain(m *testing.M) {
	code := m.Run()
	if goldenUpdate && code == 0 {
		if err := writeGoldenTable(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

func readGoldenTable() (map[string]string, error) {
	f, err := os.Open(goldenTable)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	table := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, sum, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", goldenTable, line)
		}
		table[key] = strings.TrimSpace(sum)
	}
	return table, sc.Err()
}

// writeGoldenTable merges the digests this run computed into the
// table, so a -run filter regenerates only the entries it reached.
func writeGoldenTable() error {
	table, err := readGoldenTable()
	if os.IsNotExist(err) {
		table, err = map[string]string{}, nil
	}
	if err != nil {
		return err
	}
	for k, v := range goldenGot {
		table[k] = v
	}
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("# sha256 digests checked by internal/core/golden_test.go; regenerate with GOLDEN_UPDATE=1\n")
	for _, k := range keys {
		fmt.Fprintf(&buf, "%s %s\n", k, table[k])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenTable, buf.Bytes(), 0o644)
}

var loadGolden = sync.OnceValues(readGoldenTable)

// checkGolden compares got with the table entry for key, or records it
// under GOLDEN_UPDATE=1.
func checkGolden(t *testing.T, key, got string) {
	t.Helper()
	if goldenUpdate {
		goldenMu.Lock()
		defer goldenMu.Unlock()
		if prev, ok := goldenGot[key]; ok && prev != got {
			t.Errorf("%s: digest differs between runs (%s vs %s)", key, prev, got)
		}
		goldenGot[key] = got
		return
	}
	table, err := loadGolden()
	if err != nil {
		t.Fatalf("golden table: %v", err)
	}
	want, ok := table[key]
	if !ok {
		t.Errorf("%s: no entry in %s (got %s)", key, goldenTable, got)
	} else if got != want {
		t.Errorf("%s: sha256 %s, want %s", key, got, want)
	}
}

func goldenScene(t *testing.T) *mesh.Mesh {
	t.Helper()
	cfg := meshgen.DefaultScene()
	cfg.PlateNX, cfg.PlateNY, cfg.PlateNZ = 12, 12, 2
	cfg.ProjN, cfg.ProjLen = 2, 6
	cfg.ContactRadius = 4
	m, _, err := meshgen.ProjectileScene(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenSnaps is a short simulated sequence on the golden scene.
var goldenSnaps = sync.OnceValues(func() ([]sim.Snapshot, error) {
	cfg := sim.DefaultConfig()
	cfg.Scene.PlateNX, cfg.Scene.PlateNY, cfg.Scene.PlateNZ = 12, 12, 2
	cfg.Scene.ProjN, cfg.Scene.ProjLen = 2, 6
	cfg.Scene.ContactRadius = 4
	cfg.Steps = 40
	cfg.Snapshots = 4
	return sim.Run(cfg)
})

func snaps(t *testing.T) []sim.Snapshot {
	t.Helper()
	s, err := goldenSnaps()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// digest hashes the little-endian encoding of vs in order.
func digest(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func graphDigest(g *graph.Graph) string {
	return digest(int64(g.NCon), g.Xadj, g.Adj, g.AdjWgt, g.VWgt)
}

// writerDigest hashes the bytes w serializes to.
func writerDigest(t *testing.T, w io.WriterTo) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return digest(buf.Bytes())
}

func TestGoldenNodalGraph(t *testing.T) {
	g := goldenScene(t).NodalGraph(mesh.DefaultNodalOptions())
	checkGolden(t, "nodal_graph", graphDigest(g))
}

func TestGoldenDecomposeLabels(t *testing.T) {
	m := goldenScene(t)
	for _, k := range []int{4, 16} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			d, err := core.Decompose(m, core.Config{K: k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			pre := fmt.Sprintf("decompose/k=%d/", k)
			checkGolden(t, pre+"labels", digest(d.Labels))
			checkGolden(t, pre+"raw_labels", digest(d.RawLabels))
			checkGolden(t, pre+"guide_tree", writerDigest(t, d.GuideTree))
			checkGolden(t, pre+"descriptor", writerDigest(t, d.Descriptor))
		})
	}
}

// TestGoldenGeometricBackends pins the labels of the two geometric
// backends that have no reshape step, so their determinism rests on
// the table rather than on a rerun.
func TestGoldenGeometricBackends(t *testing.T) {
	m := goldenScene(t)
	for _, be := range []string{"sfc", "bkmeans"} {
		for _, k := range []int{4, 16} {
			t.Run(fmt.Sprintf("%s/k=%d", be, k), func(t *testing.T) {
				d, err := core.Decompose(m, core.Config{K: k, Seed: 1, Backend: be})
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, fmt.Sprintf("decompose/%s/k=%d/labels", be, k), digest(d.Labels))
			})
		}
	}
}

// TestGoldenAdaptiveFullRung drives AdaptiveDecompose onto its full
// rung: every node inherits partition 0, which no diffusion can repair.
func TestGoldenAdaptiveFullRung(t *testing.T) {
	m := snaps(t)[1].Mesh
	d, out, err := core.AdaptiveDecompose(m, make([]int32, m.NumNodes()), 1, core.Config{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || out.Decision != partition.DriftFull {
		t.Fatalf("decision %v, decomposition %v: want the full rung", out.Decision, d != nil)
	}
	checkGolden(t, "adaptive/k=4/labels", digest(d.Labels))
	checkGolden(t, "adaptive/k=4/outcome", digest(int64(out.Decision), int64(out.Migrated), out.Cut, out.Imbalance, out.BaselineCut))
}

// TestGoldenSweep pins harness.RunSweep's rows and averages under each
// update strategy; every worker count must reproduce the same digest.
func TestGoldenSweep(t *testing.T) {
	sn := snaps(t)
	for _, tc := range []struct {
		name string
		cfg  harness.Config
	}{
		{"fixed", harness.Config{}},
		{"adaptive", harness.Config{Adaptive: true}},
		{"every2", harness.Config{RepartitionEvery: 2}},
		{"every2_incremental", harness.Config{RepartitionEvery: 2, Incremental: true}},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				var cfgs []harness.Config
				for _, k := range []int{3, 6} {
					c := tc.cfg
					c.K, c.Seed = k, 2
					cfgs = append(cfgs, c)
				}
				res, err := harness.RunSweep(context.Background(), sn, cfgs, harness.SweepOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var parts []any
				for _, r := range res {
					parts = append(parts, int64(r.K), int64(r.Snapshots), r.Rows, r.Avg)
				}
				checkGolden(t, "sweep/"+tc.name, digest(parts...))
			})
		}
	}
}

// TestGoldenEngineStats pins the parallel engine's realized traffic
// and detected pairs on a mid-impact snapshot.
func TestGoldenEngineStats(t *testing.T) {
	m := snaps(t)[3].Mesh
	for _, k := range []int{4, 16} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			d, err := core.Decompose(m, core.Config{K: k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			st, err := engine.Run(context.Background(), m, d, 0.5, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			per := make([]int64, 0, 7*len(st.PerWorker))
			for _, w := range st.PerWorker {
				per = append(per, int64(w.OwnedNodes), int64(w.OwnedElems), w.GhostsSent, w.GhostsRecv,
					w.ElemsSent, w.ElemsRecv, int64(w.PairsDetected))
			}
			checkGolden(t, fmt.Sprintf("engine/k=%d/stats", k),
				digest(st.GhostUnits, st.ElemsShipped, st.TreeBytes, st.Pairs, per))
		})
	}
}

// TestGoldenMLRCB pins the ML+RCB baseline's two decompositions.
func TestGoldenMLRCB(t *testing.T) {
	m := snaps(t)[0].Mesh
	for _, k := range []int{4, 16} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			s, err := mlrcb.Decompose(m, mlrcb.Config{K: k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("mlrcb/k=%d/labels", k), digest(s.MeshLabels, s.ContactNodes, s.ContactLabels))
		})
	}
}

// goldenRandomGraph is a seeded random graph with ncon vertex-weight
// constraints: a ring with two short chords per vertex, so blocks of
// consecutive vertices are contiguous parts with few neighbour parts.
// Constraint 0 weighs every vertex (1..3); the others are sparse, the
// shape of the paper's contact constraint.
func goldenRandomGraph(seed int64, nv, ncon int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(nv, ncon)
	for v := 0; v < nv; v++ {
		b.SetWeight(v, 0, 1+rng.Int31n(3))
		for j := 1; j < ncon; j++ {
			if rng.Intn(4) == 0 {
				b.SetWeight(v, j, 1+rng.Int31n(4))
			}
		}
		b.AddEdge(v, (v+1)%nv, 1+rng.Int31n(5))
		for c := 0; c < 2; c++ {
			b.AddEdge(v, (v+2+rng.Intn(20))%nv, 1+rng.Int31n(5))
		}
	}
	return b.Build()
}

// goldenSkewedLabels puts the first 40% of the ring in part 0, splits
// the rest into k-1 blocks, and relabels every tenth vertex at random:
// an overloaded part, contiguous neighbours, and scattered boundary.
func goldenSkewedLabels(seed int64, nv, k int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	labels := make([]int32, nv)
	head := nv * 2 / 5
	for v := head; v < nv; v++ {
		labels[v] = int32(1 + (v-head)*(k-1)/(nv-head))
	}
	for v := range labels {
		if rng.Intn(10) == 0 {
			labels[v] = int32(rng.Intn(k))
		}
	}
	return labels
}

// goldenWedgedInput is the balancer's hard shape: part 0 owns every
// vertex of constraint 1, and those vertices are three times heavier
// on constraint 0 than the rest, so no neighbour of part 0 can take
// one without first shedding light vertices elsewhere.
func goldenWedgedInput(nv, k int) (*graph.Graph, []int32) {
	rng := rand.New(rand.NewSource(int64(nv + k)))
	b := graph.NewBuilder(nv, 2)
	labels := make([]int32, nv)
	for v := 0; v < nv; v++ {
		labels[v] = int32(v * k / nv)
		b.SetWeight(v, 0, 1)
		if labels[v] == 0 {
			b.SetWeight(v, 0, 3)
			b.SetWeight(v, 1, 1)
		}
		b.AddEdge(v, (v+1)%nv, 1+rng.Int31n(5))
		b.AddEdge(v, (v+2+rng.Intn(20))%nv, 1+rng.Int31n(5))
	}
	return b.Build(), labels
}

// goldenLumpInput gives part 0 a single vertex heavier than any cap,
// which no move can fix (a part is never emptied), next to a part 1
// holding 40% of the ring: the balancer marks part 0 wedged, drains
// part 1, then clears the mark and retries part 0 before it gives up.
func goldenLumpInput(nv, k int) (*graph.Graph, []int32) {
	rng := rand.New(rand.NewSource(int64(nv + k)))
	b := graph.NewBuilder(nv, 1)
	labels := make([]int32, nv)
	head := nv * 2 / 5
	b.SetWeight(0, 0, int32(nv))
	b.AddEdge(0, 1, 1)
	for v := 1; v < nv; v++ {
		labels[v] = 1
		if v > head {
			labels[v] = int32(2 + (v-head-1)*(k-2)/(nv-head-1))
		}
		b.SetWeight(v, 0, 1)
		b.AddEdge(v, (v+1)%nv, 1+rng.Int31n(5))
		b.AddEdge(v, (v+2+rng.Intn(20))%nv, 1+rng.Int31n(5))
	}
	return b.Build(), labels
}

// TestGoldenKWayMoves pins the labels of the multi-constraint k-way
// refiner (RefineKWay) and the diffusion repartitioner (Repartition)
// on seeded random graphs from a skewed start, and on two inputs that
// wedge the balancer's drains (one relieved by two-hop moves, one not
// at all), so the move kernel they share is covered move for move.
func TestGoldenKWayMoves(t *testing.T) {
	type input struct {
		name   string
		g      *graph.Graph
		labels []int32
		k      int
	}
	var inputs []input
	for ncon := 1; ncon <= 3; ncon++ {
		for _, k := range []int{2, 7, 32} {
			seed := int64(100*ncon + k)
			inputs = append(inputs, input{fmt.Sprintf("ncon=%d/k=%d", ncon, k),
				goldenRandomGraph(seed, 640, ncon), goldenSkewedLabels(seed, 640, k), k})
		}
	}
	g, labels := goldenWedgedInput(420, 7)
	inputs = append(inputs, input{"wedged/k=7", g, labels, 7})
	g, labels = goldenLumpInput(420, 7)
	inputs = append(inputs, input{"lump/k=7", g, labels, 7})
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			opt := partition.Options{K: in.k, Seed: 3, Imbalance: 0.05}
			refined := append([]int32(nil), in.labels...)
			partition.RefineKWay(in.g, refined, opt)
			checkGolden(t, "kway/refine/"+in.name+"/labels", digest(refined))

			diffused := append([]int32(nil), in.labels...)
			if err := partition.Repartition(in.g, diffused, opt); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "kway/repartition/"+in.name+"/labels", digest(diffused))
		})
	}
}

// goldenBisectScene is a projectile scene of 5,144 nodes, four times
// the golden scene's plate area.
func goldenBisectScene(t *testing.T) *mesh.Mesh {
	t.Helper()
	cfg := meshgen.DefaultScene()
	cfg.PlateNX, cfg.PlateNY, cfg.PlateNZ = 24, 24, 3
	cfg.ProjN, cfg.ProjLen = 3, 8
	cfg.ContactRadius = 6
	m, _, err := meshgen.ProjectileScene(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGoldenKWayBisect pins partition.KWay's labels on graphs of
// thousands of vertices — seeded random graphs of 6,000 and the nodal
// graphs of a 5,144-node scene — so the recursive bisection runs FM on
// multilevel ladders from the coarsest graph up to thousands of
// vertices and the refinement schedule is covered at every size it
// handles, not just on the golden scene's few hundred vertices.
func TestGoldenKWayBisect(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
		k    int
	}
	var inputs []input
	m := goldenBisectScene(t)
	for ncon := 1; ncon <= 2; ncon++ {
		nodal := mesh.DefaultNodalOptions()
		nodal.NCon = ncon
		for _, k := range []int{7, 25} {
			inputs = append(inputs,
				input{fmt.Sprintf("ncon=%d/k=%d", ncon, k), goldenRandomGraph(int64(100*ncon+k), 6000, ncon), k},
				input{fmt.Sprintf("scene/ncon=%d/k=%d", ncon, k), m.NodalGraph(nodal), k})
		}
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			labels, err := partition.KWay(context.Background(), in.g, partition.Options{K: in.k, Seed: 3, Imbalance: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "kway/bisect/"+in.name+"/labels", digest(labels))
		})
	}
}
