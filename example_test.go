package repro_test

import (
	"context"
	"fmt"

	"repro"
)

// Example decomposes a small impact scene with MCML+DT and reports the
// balance of the two computational phases.
func Example() {
	scene := repro.DefaultScene()
	scene.PlateNX, scene.PlateNY, scene.PlateNZ = 12, 12, 2
	scene.ProjN, scene.ProjLen = 2, 6
	scene.ContactRadius = 4
	m, _, err := repro.ProjectileScene(scene)
	if err != nil {
		panic(err)
	}
	d, err := repro.Decompose(m, repro.DecomposeConfig{K: 4, Seed: 42})
	if err != nil {
		panic(err)
	}
	s := d.Stats()
	fmt.Printf("partitions: %d\n", d.Cfg.K)
	fmt.Printf("FE-phase imbalance under 1.10: %v\n", s.Imbalance[0] < 1.10)
	fmt.Printf("contact-phase imbalance under 1.30: %v\n", s.Imbalance[1] < 1.30)
	fmt.Printf("descriptor leaves are pure: %v\n", s.NTNodes == 2*d.Descriptor.NumLeaves()-1)
	// Output:
	// partitions: 4
	// FE-phase imbalance under 1.10: true
	// contact-phase imbalance under 1.30: true
	// descriptor leaves are pure: true
}

// ExampleRunExperiment reproduces one row of the paper's Table 1 at a
// reduced scale and checks the headline relation: the decoupled
// ML+RCB baseline pays more total pre-search communication
// (FEComm + 2*M2MComm + UpdComm) than MCML+DT's FEComm.
func ExampleRunExperiment() {
	cfg := repro.DefaultSimConfig()
	cfg.Scene.PlateNX, cfg.Scene.PlateNY, cfg.Scene.PlateNZ = 12, 12, 2
	cfg.Scene.ProjN, cfg.Scene.ProjLen = 2, 6
	cfg.Scene.ContactRadius = 4
	cfg.Steps, cfg.Snapshots = 40, 4
	snaps, err := repro.RunSimulation(cfg)
	if err != nil {
		panic(err)
	}
	res, err := repro.RunExperiment(context.Background(), snaps, repro.ExperimentConfig{K: 8, Seed: 1})
	if err != nil {
		panic(err)
	}
	mlTotal := res.Avg.MLFEComm + 2*res.Avg.MLM2MComm + res.Avg.MLUpdComm
	fmt.Printf("ML+RCB pays more pre-search communication: %v\n", mlTotal > res.Avg.MCFEComm)
	// Output:
	// ML+RCB pays more pre-search communication: true
}
