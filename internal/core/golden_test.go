package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/meshgen"
)

// Pinned digests of a small projectile scene (goldenScene). A change to
// graph construction or to the partitioner that alters any byte of the
// nodal graph or any label fails here; update the constants only for a
// deliberate behaviour change, and say so in the change log.
const (
	goldenNodalGraph = "ef332464d40d6ece8946fda7287ad1a9f609cd5486a803301c309e1959129b61"
	goldenLabelsK4   = "10e3784345521a2f40a40d3800b6f12ccd33ab9ed851c1c1e09f1525bb9e8628"
	goldenLabelsK16  = "98536db61c7fc4f373855c8c7e0c864a05abddae1a559c98127f1a1e90f35f52"
)

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

func TestGoldenNodalGraph(t *testing.T) {
	m := goldenScene(t)
	g := m.NodalGraph(mesh.DefaultNodalOptions())
	if got := graphDigest(g); got != goldenNodalGraph {
		t.Errorf("nodal graph of the golden scene (%d vertices, %d edges): sha256 %s, want %s",
			g.NV(), g.NE(), got, goldenNodalGraph)
	}
}

func TestGoldenDecomposeLabels(t *testing.T) {
	m := goldenScene(t)
	for _, tc := range []struct {
		k    int
		want string
	}{{4, goldenLabelsK4}, {16, goldenLabelsK16}} {
		t.Run(fmt.Sprintf("k=%d", tc.k), func(t *testing.T) {
			d, err := Decompose(m, Config{K: tc.k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(d.Labels); got != tc.want {
				t.Errorf("Decompose labels at k=%d: sha256 %s, want %s", tc.k, got, tc.want)
			}
		})
	}
}
