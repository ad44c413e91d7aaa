// Package repro is a from-scratch Go implementation of
//
//	George Karypis, "Multi-Constraint Mesh Partitioning for
//	Contact/Impact Computations", SC'03,
//
// including the paper's MCML+DT decomposition pipeline, the ML+RCB
// baseline it is evaluated against, and every substrate both depend
// on: a multilevel multi-constraint graph partitioner, recursive
// coordinate bisection, C4.5-style decision-tree induction with the
// paper's modified gini splitting index, finite-element mesh data
// structures, a synthetic contact/impact simulation standing in for
// the proprietary EPIC dataset, and the Section 5.1 measurement
// harness.
//
// This package is the public facade: it re-exports the types and
// entry points a downstream user needs. The implementation lives in
// the internal/ packages (one per subsystem); see DESIGN.md for the
// full inventory and EXPERIMENTS.md for the paper-vs-measured results.
//
// # Quick use
//
//	m, _, err := repro.ProjectileScene(repro.DefaultScene()) // or build your own mesh.Mesh
//	d, err := repro.Decompose(m, repro.DecomposeConfig{K: 8, Seed: 1})
//	fmt.Println(d.Stats())                                   // FEComm, cut, imbalance, NTNodes
//	n := d.NRemote(m, 0.5)                                   // global-search volume
//
// To reproduce Table 1, run the harness over a simulated snapshot
// sequence (or use cmd/contactbench):
//
//	snaps, err := repro.RunSimulation(repro.PaperSimConfig())
//	res, err := repro.RunExperiment(ctx, snaps, repro.ExperimentConfig{K: 25, Seed: 1})
package repro

import (
	"context"
	"io"

	"repro/internal/contact"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/meshgen"
	"repro/internal/sim"
)

// Mesh is a finite-element mesh with designated contact surfaces.
type Mesh = mesh.Mesh

// SurfaceElem is one contact surface facet.
type SurfaceElem = mesh.SurfaceElem

// SceneConfig parameterizes the projectile/two-plate scene generator.
type SceneConfig = meshgen.SceneConfig

// DefaultScene returns the small (~10k node) scene configuration.
func DefaultScene() SceneConfig { return meshgen.DefaultScene() }

// ProjectileScene builds the projectile/two-plate mesh.
func ProjectileScene(cfg SceneConfig) (*Mesh, *meshgen.SceneInfo, error) {
	return meshgen.ProjectileScene(cfg)
}

// DecomposeConfig configures the MCML+DT pipeline.
type DecomposeConfig = core.Config

// Decomposition is the result of the MCML+DT pipeline: the reshaped
// multi-constraint partition P” and the contact-point decision tree.
type Decomposition = core.Decomposition

// Decompose runs the full MCML+DT pipeline of Section 4 on a mesh.
func Decompose(m *Mesh, cfg DecomposeConfig) (*Decomposition, error) {
	return core.Decompose(m, cfg)
}

// SimConfig parameterizes the synthetic contact/impact simulation.
type SimConfig = sim.Config

// Snapshot is one emitted simulation state with persistent node ids.
type Snapshot = sim.Snapshot

// DefaultSimConfig returns the fast simulation profile.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// PaperSimConfig returns the Table 1 reproduction profile (~70k nodes,
// ~13% contact nodes, 100 snapshots).
func PaperSimConfig() SimConfig { return sim.PaperConfig() }

// RunSimulation executes the kinematic penetration run and returns the
// snapshot sequence.
func RunSimulation(cfg SimConfig) ([]Snapshot, error) { return sim.Run(cfg) }

// ExperimentConfig configures a Table 1 experiment (one k).
type ExperimentConfig = harness.Config

// ExperimentResult holds the six Section 5.1 metrics per snapshot and
// their averages.
type ExperimentResult = harness.Result

// RunExperiment measures MCML+DT and ML+RCB over a snapshot sequence.
// Cancelling ctx stops it between snapshots with ctx's error.
func RunExperiment(ctx context.Context, snaps []Snapshot, cfg ExperimentConfig) (*ExperimentResult, error) {
	res, err := harness.RunSweep(ctx, snaps, []ExperimentConfig{cfg}, harness.SweepOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// WriteTable renders experiment results in the layout of Table 1.
func WriteTable(w io.Writer, results []*ExperimentResult) { harness.WriteTable(w, results) }

// WriteDerived prints the paper's derived communication-ratio claims.
func WriteDerived(w io.Writer, results []*ExperimentResult) { harness.WriteDerived(w, results) }

// ContactPair is a detected contact between two surface elements.
type ContactPair = contact.Pair

// DetectContacts runs the full serial contact-detection pipeline (BVH
// broad phase + exact facet-distance narrow phase) and returns every
// pair of surface elements within tol, excluding node-sharing pairs.
func DetectContacts(m *Mesh, tol float64) []ContactPair {
	return contact.DetectContacts(m, tol)
}

// ParallelStats is the outcome of one parallel iteration: realized
// ghost traffic, element shipments, and the detected contacts.
type ParallelStats = engine.Stats

// RunParallelIteration executes one iteration of the decomposed
// contact/impact computation on K message-passing workers (ghost
// exchange, descriptor broadcast, element shipping, local search).
// Cancelling ctx abandons the iteration with ctx's error.
func RunParallelIteration(ctx context.Context, m *Mesh, d *Decomposition, tol float64) (*ParallelStats, error) {
	return engine.Run(ctx, m, d, tol, engine.Options{})
}
