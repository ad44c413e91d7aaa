// Package mlrcb implements the ML+RCB baseline (Plimpton et al. [27],
// Brown et al. [2]) that the paper compares MCML+DT against: the mesh
// is partitioned once with a single-constraint multilevel algorithm
// (the FE-phase decomposition) while the contact points are partitioned
// separately with recursive coordinate bisection (the contact-phase
// decomposition), updated incrementally each time step. Because the
// two decompositions are decoupled, surface-node data must be shipped
// between them before each phase — the M2MComm cost — and the RCB
// updates migrate points between contact partitions — the UpdComm
// cost. Global search filters candidate partitions through the RCB
// subdomains' bounding boxes.
package mlrcb

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/contact"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mesh"
	"repro/internal/rcb"
)

// Config parameterizes the baseline.
type Config struct {
	K         int
	Seed      int64
	Imbalance float64 // FE-partition tolerance (default 0.05)
}

// State carries the baseline's two decompositions across time steps.
type State struct {
	Cfg Config
	// Graph is the single-constraint nodal graph of the initial mesh;
	// MeshLabels its k-way FE-phase partition.
	Graph      *graph.Graph
	MeshLabels []int32
	// Tree is the RCB cut tree, updated in place each step.
	Tree *rcb.Tree
	// ContactNodes / ContactPoints / ContactLabels are the current
	// contact nodes, their coordinates, and their RCB partitions.
	ContactNodes  []int32
	ContactPoints []geom.Point
	ContactLabels []int32
}

// Decompose builds the initial two decompositions for a mesh.
func Decompose(m *mesh.Mesh, cfg Config) (*State, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("mlrcb: K = %d", cfg.K)
	}
	if cfg.Imbalance <= 0 {
		cfg.Imbalance = 0.05
	}
	g := m.NodalGraph(mesh.NodalGraphOptions{NCon: 1})
	ml, err := backend.Lookup("multilevel")
	if err != nil {
		return nil, err
	}
	//lint:ignore ctxflow perfbench pins the ctx-less Decompose (ROADMAP item 1), so the baseline's partition can be neither cancelled nor traced
	labels, err := ml.Partition(context.Background(), backend.Input{Graph: g}, backend.Options{
		K: cfg.K, Seed: cfg.Seed, Imbalance: cfg.Imbalance,
	})
	if err != nil {
		return nil, err
	}
	s := &State{Cfg: cfg, Graph: g, MeshLabels: labels}

	nodes := m.ContactNodes()
	pts := gatherPoints(m, nodes)
	tree, cl, err := rcb.Build(pts, m.Dim, cfg.K)
	if err != nil {
		return nil, err
	}
	s.Tree = tree
	s.ContactNodes = nodes
	s.ContactPoints = pts
	s.ContactLabels = cl
	return s, nil
}

// Update refits the RCB decomposition to the mesh's current contact
// points (which may have moved, disappeared, or newly appeared) and
// replaces the state's contact bookkeeping. The cut tree's structure
// is preserved — only cut positions move — which is the incremental
// repartitioning strategy whose migration cost the UpdComm metric
// measures.
func (s *State) Update(m *mesh.Mesh) {
	nodes := m.ContactNodes()
	pts := gatherPoints(m, nodes)
	s.ContactLabels = s.Tree.Update(pts)
	s.ContactNodes = nodes
	s.ContactPoints = pts
}

// M2MComm returns the number of contact points whose FE-phase
// partition differs from their contact-phase partition, after the
// optimal (maximum-weight matching) relabeling of the RCB partitions
// against the FE partitions. meshLabels must map every node of the
// *current* mesh to its FE partition.
func (s *State) M2MComm(meshLabels []int32) (int, error) {
	fe := make([]int32, len(s.ContactNodes))
	for i, n := range s.ContactNodes {
		fe[i] = meshLabels[n]
	}
	_, mismatched, err := matching.OverlapRelabel(fe, s.ContactLabels, s.Cfg.K)
	return mismatched, err
}

// NRemote runs the baseline's global search: each surface element
// (bounding box, inflated by tol) is tested against the bounding box
// of every RCB subdomain's contact points; the element is "remote" for
// every matching subdomain other than its own. A surface element's own
// contact partition is where the RCB tree places its box center. m
// must be the mesh of the last Decompose or Update.
func (s *State) NRemote(m *mesh.Mesh, tol float64) int64 {
	return s.NRemoteBoxes(m, contact.SurfaceBoxes(m, tol))
}

// NRemoteBoxes is NRemote over the query boxes
// contact.SurfaceBoxes(m, tol). Each box walks the RCB cut tree to the
// subdomains whose cells it meets and is tested against their point
// boxes only, which marks the subdomains a test against every point
// box marks.
func (s *State) NRemoteBoxes(m *mesh.Mesh, boxes []geom.AABB) int64 {
	owners := make([]int32, len(boxes))
	for i := range boxes {
		owners[i] = s.Tree.PartOf(boxes[i].Center())
	}
	f := &contact.BoxFilter{Boxes: rcb.SubdomainBoxes(s.ContactPoints, s.ContactLabels, s.Cfg.K), Dim: m.Dim, Cells: s.Tree}
	return contact.NRemote(boxes, owners, f)
}

func gatherPoints(m *mesh.Mesh, nodes []int32) []geom.Point {
	pts := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		pts[i] = m.Coords[n]
	}
	return pts
}
