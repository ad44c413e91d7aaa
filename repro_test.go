package repro_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// quickstart does: scene -> decompose -> stats -> experiment -> table.
func TestFacadeEndToEnd(t *testing.T) {
	scene := repro.DefaultScene()
	scene.PlateNX, scene.PlateNY, scene.PlateNZ = 10, 10, 2
	scene.ProjN, scene.ProjLen = 2, 6
	scene.ContactRadius = 3
	m, info, err := repro.ProjectileScene(scene)
	if err != nil {
		t.Fatal(err)
	}
	if info == nil || m.NumNodes() == 0 {
		t.Fatal("scene generation failed")
	}

	d, err := repro.Decompose(m, repro.DecomposeConfig{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.FEComm <= 0 || s.NTNodes <= 0 {
		t.Fatalf("stats: %+v", s)
	}
	if nr := d.NRemote(m, 0.5); nr < 0 {
		t.Fatalf("NRemote = %d", nr)
	}

	simCfg := repro.DefaultSimConfig()
	simCfg.Scene = scene
	simCfg.Steps, simCfg.Snapshots = 20, 2
	snaps, err := repro.RunSimulation(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunExperiment(context.Background(), snaps, repro.ExperimentConfig{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	repro.WriteTable(&buf, []*repro.ExperimentResult{res})
	repro.WriteDerived(&buf, []*repro.ExperimentResult{res})
	out := buf.String()
	if !strings.Contains(out, "4-way") || !strings.Contains(out, "MCML+DT") {
		t.Errorf("table output: %s", out)
	}
}

func TestFacadePaperProfileShape(t *testing.T) {
	cfg := repro.PaperSimConfig()
	if cfg.Snapshots != 100 {
		t.Errorf("paper profile snapshots = %d", cfg.Snapshots)
	}
	if !cfg.Scene.FullFaces {
		t.Error("paper profile must designate full plate faces")
	}
	if cfg.Scene.Refine < 2 {
		t.Errorf("paper profile refine = %d", cfg.Scene.Refine)
	}
}

func TestFacadeParallelIteration(t *testing.T) {
	scene := repro.DefaultScene()
	scene.PlateNX, scene.PlateNY, scene.PlateNZ = 10, 10, 2
	scene.ProjN, scene.ProjLen = 2, 6
	scene.ContactRadius = 3
	simCfg := repro.DefaultSimConfig()
	simCfg.Scene = scene
	simCfg.Steps, simCfg.Snapshots = 30, 2
	snaps, err := repro.RunSimulation(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	m := snaps[len(snaps)-1].Mesh
	d, err := repro.Decompose(m, repro.DecomposeConfig{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := repro.RunParallelIteration(context.Background(), m, d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	serial := repro.DetectContacts(m, 0.5)
	if len(st.Pairs) != len(serial) {
		t.Fatalf("parallel %d pairs vs serial %d", len(st.Pairs), len(serial))
	}
}
