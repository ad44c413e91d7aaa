package mlrcb

import (
	"testing"

	"repro/internal/contact"
	"repro/internal/rcb"
	"repro/internal/sim"
)

// BenchmarkNRemoteK100 times ML+RCB global search on the benchmark's
// Table-1 scene at k = 100: the cut-tree walk against the linear scan
// over all 100 subdomain boxes.
func BenchmarkNRemoteK100(b *testing.B) {
	cfg := sim.PaperConfig()
	cfg.Scene.Refine = 1
	cfg.Steps, cfg.Snapshots = 4, 1
	snaps, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := snaps[0].Mesh
	s, err := Decompose(m, Config{K: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	boxes := contact.SurfaceBoxes(m, 0.5)
	want := s.NRemoteBoxes(m, boxes)
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := s.NRemoteBoxes(m, boxes); got != want {
				b.Fatalf("NRemote %d, want %d", got, want)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		owners := make([]int32, len(boxes))
		for i := range boxes {
			owners[i] = s.Tree.PartOf(boxes[i].Center())
		}
		for i := 0; i < b.N; i++ {
			sub := rcb.SubdomainBoxes(gatherPoints(m, s.ContactNodes), s.ContactLabels, 100)
			if got := contact.NRemote(boxes, owners, &contact.BoxFilter{Boxes: sub, Dim: m.Dim}); got != want {
				b.Fatalf("NRemote %d, want %d", got, want)
			}
		}
	})
}
