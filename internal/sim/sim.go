// Package sim implements a kinematic contact/impact simulation that
// stands in for the EPIC projectile-penetration run of the paper's
// evaluation (Section 5). It is not a structural solver: it reproduces
// exactly the aspects of the real simulation that the partitioning
// experiments consume — a projectile advancing through two plates,
// plate nodes deforming into a crater, elements eroding away (changing
// the mesh topology), and the contact surface evolving — and emits a
// sequence of mesh snapshots with persistent node identities so that
// the ML+RCB update metrics (UpdComm) can be measured across steps.
package sim

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/meshgen"
)

// Config parameterizes a run. Zero value is unusable; start from
// DefaultConfig().
type Config struct {
	Scene meshgen.SceneConfig
	// Steps is the number of kinematic time steps; Snapshots how many
	// evenly spaced mesh snapshots to emit (the paper instruments EPIC
	// to dump ~every 37 of 3768 steps, giving 100 snapshots).
	Steps     int
	Snapshots int
	// ExitMargin is how far past the lower plate's bottom the
	// projectile travels by the end of the run.
	ExitMargin float64
	// CraterAmp scales the plate deformation; CraterDecay is the
	// radial decay length of the crater bump (in cells).
	CraterAmp   float64
	CraterDecay float64
	// ErodeMargin widens the eroded channel beyond the projectile's
	// half-width, in units of the cell size.
	ErodeMargin float64
}

// DefaultConfig returns the fast configuration: the default scene
// (~10k nodes) with 100 snapshots over 400 steps.
func DefaultConfig() Config {
	return Config{
		Scene:       meshgen.DefaultScene(),
		Steps:       400,
		Snapshots:   100,
		ExitMargin:  2.0,
		CraterAmp:   0.35,
		CraterDecay: 3.0,
		ErodeMargin: 0.3,
	}
}

// PaperConfig returns the profile used to reproduce Table 1: a ~70k
// node scene whose contact-node fraction (~13%) matches the EPIC
// dataset's 20,262 of 156,601, with 100 snapshots. (Refine=3 reaches
// the paper's full node count at ~8x the run time.)
func PaperConfig() Config {
	c := DefaultConfig()
	c.Scene.Refine = 2
	c.Scene.PlateNZ = 8       // thicker plates: volume/surface ratio of EPIC
	c.Scene.FullFaces = true  // whole plate faces are slide surfaces
	c.Scene.ContactRadius = 4 // + the erosion-exposed crater walls
	return c
}

// Snapshot is one emitted state of the simulation.
type Snapshot struct {
	// Index is the snapshot number (0-based); Step the time step it was
	// taken at; TipZ the projectile tip's z coordinate.
	Index int
	Step  int
	TipZ  float64
	// Mesh is a self-contained copy (compacted: eroded elements and
	// orphaned nodes removed).
	Mesh *mesh.Mesh
	// NodeID[v] is the persistent identity of node v, stable across
	// snapshots even as nodes are deleted and renumbered.
	NodeID []int64
}

// Sim is the running simulation state.
type Sim struct {
	cfg  Config
	m    *mesh.Mesh
	info *meshgen.SceneInfo

	nodeID   []int64        // persistent ids parallel to m.Coords
	elemBody []meshgen.Body // body of each current element
	disp     []geom.Point   // cumulative plate-node displacement (capped)

	step     int
	speed    float64 // projectile z-advance per step
	tipZ     float64
	projHalf float64 // projectile half-width in xy
	cell     float64 // refined cell size
}

// New builds the scene and returns a simulator at step 0.
func New(cfg Config) (*Sim, error) {
	if cfg.Steps < 1 || cfg.Snapshots < 1 || cfg.Snapshots > cfg.Steps {
		return nil, fmt.Errorf("sim: Steps=%d Snapshots=%d invalid", cfg.Steps, cfg.Snapshots)
	}
	m, info, err := meshgen.ProjectileScene(cfg.Scene)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:      cfg,
		m:        m,
		info:     info,
		nodeID:   make([]int64, m.NumNodes()),
		elemBody: make([]meshgen.Body, m.NumElems()),
		disp:     make([]geom.Point, m.NumNodes()),
		tipZ:     info.ProjTip,
		projHalf: float64(cfg.Scene.ProjN) * cfg.Scene.Cell / 2,
		cell:     cfg.Scene.Cell / float64(cfg.Scene.Refine),
	}
	for v := range s.nodeID {
		s.nodeID[v] = int64(v)
	}
	for e := range s.elemBody {
		b, ok := info.BodyOfElem(int32(e))
		if !ok {
			return nil, fmt.Errorf("sim: element %d outside every scene body", e)
		}
		s.elemBody[e] = b
	}
	travel := (info.ProjTip - info.Plate2Bot) + cfg.ExitMargin
	s.speed = travel / float64(cfg.Steps)
	return s, nil
}

// Step advances one kinematic time step: the projectile moves down and
// the plates deform around the penetration channel.
func (s *Sim) Step() {
	s.step++
	dz := s.speed
	s.tipZ -= dz
	// Advance every projectile node.
	for v := 0; v < s.m.NumNodes(); v++ {
		if s.bodyOfNode(v) == meshgen.Projectile {
			s.m.Coords[v][2] -= dz
		}
	}
	s.deformPlates()
}

// bodyOfNode returns the body a node belongs to. Persistent node ids
// are exactly the node's original scene index, so the original scene
// ranges remain valid even after erosion renumbers the mesh.
func (s *Sim) bodyOfNode(v int) meshgen.Body {
	for b := meshgen.Plate1; b <= meshgen.Projectile; b++ {
		if s.info.Nodes[b].Contains(int32(s.nodeBodyKey(v))) {
			return b
		}
	}
	panic(fmt.Sprintf("sim: node %d outside all bodies", v))
}

// nodeBodyKey returns the original node id used against the scene
// ranges (persistent ids are exactly the original indices).
func (s *Sim) nodeBodyKey(v int) int64 { return s.nodeID[v] }

// deformPlates applies the crater bump to plate nodes near the axis:
// nodes within the decay radius of the channel are pushed radially
// outward and slightly downward as the tip passes their depth.
// Displacement accumulates but is capped at half a cell so elements
// stay usable.
func (s *Sim) deformPlates() {
	amp := s.cfg.CraterAmp * s.speed
	decay := s.cfg.CraterDecay * s.cfg.Scene.Cell
	capd := s.cell / 2
	ax, ay := s.info.Axis[0], s.info.Axis[1]
	for v := 0; v < s.m.NumNodes(); v++ {
		if s.bodyOfNode(v) == meshgen.Projectile {
			continue
		}
		p := s.m.Coords[v]
		// Only nodes near the tip's current depth deform.
		if math.Abs(p[2]-s.tipZ) > 3*s.cfg.Scene.Cell {
			continue
		}
		dx, dy := p[0]-ax, p[1]-ay
		r := math.Sqrt(dx*dx + dy*dy)
		if r > s.projHalf+4*decay || r < 1e-12 {
			continue
		}
		bump := amp * math.Exp(-math.Max(0, r-s.projHalf)/decay)
		ur := bump        // radial push
		uz := -0.5 * bump // downward dishing
		d := s.disp[v]
		d[0] += ur * dx / r
		d[1] += ur * dy / r
		d[2] += uz
		// Cap cumulative displacement.
		n := d.Norm()
		if n > capd {
			d = d.Scale(capd / n)
		}
		delta := d.Sub(s.disp[v])
		s.disp[v] = d
		s.m.Coords[v] = p.Add(delta)
	}
}

// erode removes plate elements swallowed by the penetration channel:
// elements whose centroid lies inside the (slightly widened) square
// channel and above the current tip depth.
func (s *Sim) erode() {
	half := s.projHalf + s.cfg.ErodeMargin*s.cell
	ax, ay := s.info.Axis[0], s.info.Axis[1]
	alive := make([]bool, s.m.NumElems())
	removed := 0
	for e := 0; e < s.m.NumElems(); e++ {
		alive[e] = true
		if s.elemBody[e] == meshgen.Projectile {
			continue
		}
		nodes := s.m.ElemNodes(e)
		var cx, cy, cz float64
		for _, n := range nodes {
			cx += s.m.Coords[n][0]
			cy += s.m.Coords[n][1]
			cz += s.m.Coords[n][2]
		}
		k := float64(len(nodes))
		cx, cy, cz = cx/k, cy/k, cz/k
		if math.Abs(cx-ax) <= half && math.Abs(cy-ay) <= half && cz >= s.tipZ {
			alive[e] = false
			removed++
		}
	}
	if removed == 0 {
		return
	}
	s.compact(alive)
}

// compact rebuilds the mesh keeping only alive elements and the nodes
// they reference, preserving persistent node ids.
func (s *Sim) compact(alive []bool) {
	old := s.m
	newIdx := make([]int32, old.NumNodes())
	for i := range newIdx {
		newIdx[i] = -1
	}
	// Sized for the old mesh, which bounds the compacted one.
	nn, ne := old.NumNodes(), old.NumElems()
	nm := &mesh.Mesh{
		Dim:    old.Dim,
		Coords: make([]geom.Point, 0, nn),
		Types:  make([]mesh.ElemType, 0, ne),
		EPtr:   append(make([]int32, 0, ne+1), 0),
		ENodes: make([]int32, 0, len(old.ENodes)),
	}
	nodeID := make([]int64, 0, nn)
	disp := make([]geom.Point, 0, nn)
	elemBody := make([]meshgen.Body, 0, ne)
	for e := 0; e < ne; e++ {
		if !alive[e] {
			continue
		}
		nm.Types = append(nm.Types, old.Types[e])
		for _, n := range old.ElemNodes(e) {
			if newIdx[n] < 0 {
				newIdx[n] = int32(len(nm.Coords))
				nm.Coords = append(nm.Coords, old.Coords[n])
				nodeID = append(nodeID, s.nodeID[n])
				disp = append(disp, s.disp[n])
			}
			nm.ENodes = append(nm.ENodes, newIdx[n])
		}
		nm.EPtr = append(nm.EPtr, int32(len(nm.ENodes)))
		elemBody = append(elemBody, s.elemBody[e])
	}
	s.m = nm
	s.nodeID = nodeID
	s.disp = disp
	s.elemBody = elemBody
}

// Snapshot erodes, re-designates the contact surface, and returns a
// deep copy of the current state.
func (s *Sim) Snapshot(index int) Snapshot {
	s.erode()
	meshgen.DesignateContactBy(s.m, s.info.Axis, s.cfg.Scene.ContactRadius, s.cfg.Scene.FullFaces, func(e int32) bool {
		return s.elemBody[e] == meshgen.Projectile
	})
	return Snapshot{
		Index:  index,
		Step:   s.step,
		TipZ:   s.tipZ,
		Mesh:   s.m.Clone(),
		NodeID: append([]int64(nil), s.nodeID...),
	}
}

// TipZ returns the projectile tip's current depth.
func (s *Sim) TipZ() float64 { return s.tipZ }

// Mesh returns the live mesh (mutated by Step; callers must not hold it
// across steps).
func (s *Sim) Mesh() *mesh.Mesh { return s.m }

// Info returns the scene bookkeeping.
func (s *Sim) Info() *meshgen.SceneInfo { return s.info }

// Run executes the full simulation and returns the snapshot sequence.
func Run(cfg Config) ([]Snapshot, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	snaps := make([]Snapshot, 0, cfg.Snapshots)
	interval := cfg.Steps / cfg.Snapshots
	for t := 1; t <= cfg.Steps; t++ {
		s.Step()
		if t%interval == 0 && len(snaps) < cfg.Snapshots {
			snaps = append(snaps, s.Snapshot(len(snaps)))
		}
	}
	for len(snaps) < cfg.Snapshots {
		snaps = append(snaps, s.Snapshot(len(snaps)))
	}
	return snaps, nil
}
