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
	cfg    Config
	m      *mesh.Mesh
	info   *meshgen.SceneInfo
	facets *mesh.FacetCounts // m's facet matching, kept through erosion

	nodeID   []int64        // persistent ids parallel to m.Coords
	nodeBody []meshgen.Body // body of each current node
	disp     []geom.Point   // cumulative plate-node displacement (capped)
	elemBody []meshgen.Body // body of each current element
	// erodible lists, in ascending order, the current elements that can
	// still erode (see New).
	erodible []int32

	// compact's scratch: the eroded elements, the node renumbering, and
	// the node arrays it gathers the survivors into before swapping them
	// with the live ones.
	dead       []int32
	firstUse   bool // nodes are numbered in order of first use
	newIdx     []int32
	spareCoord []geom.Point
	spareID    []int64
	spareBody  []meshgen.Body
	spareDisp  []geom.Point

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
	nn := m.NumNodes()
	s := &Sim{
		cfg:        cfg,
		m:          m,
		info:       info,
		facets:     info.Facets,
		nodeID:     make([]int64, nn),
		nodeBody:   make([]meshgen.Body, nn),
		disp:       make([]geom.Point, nn),
		elemBody:   make([]meshgen.Body, m.NumElems()),
		newIdx:     make([]int32, nn),
		spareCoord: make([]geom.Point, 0, nn),
		spareID:    make([]int64, 0, nn),
		spareBody:  make([]meshgen.Body, 0, nn),
		spareDisp:  make([]geom.Point, 0, nn),
		tipZ:       info.ProjTip,
		projHalf:   float64(cfg.Scene.ProjN) * cfg.Scene.Cell / 2,
		cell:       cfg.Scene.Cell / float64(cfg.Scene.Refine),
	}
	for v := range s.nodeID {
		s.nodeID[v] = int64(v)
	}
	for b := meshgen.Plate1; b <= meshgen.Projectile; b++ {
		for v := info.Nodes[b].Lo; v < info.Nodes[b].Hi; v++ {
			s.nodeBody[v] = b
		}
	}
	// A plate element erodes when its centroid is within erodeHalf of
	// the axis in x and in y. deformPlates caps every node's
	// displacement at cell/2, so a centroid never moves farther than
	// that along x or y: only elements starting within erodeHalf +
	// cell/2 can erode, and another cell/2 absorbs rounding.
	reach := s.erodeHalf() + s.cell
	for e := range s.elemBody {
		b, ok := info.BodyOfElem(int32(e))
		if !ok {
			return nil, fmt.Errorf("sim: element %d outside every scene body", e)
		}
		s.elemBody[e] = b
		if c := s.centroid(e); b != meshgen.Projectile &&
			math.Abs(c[0]-info.Axis[0]) <= reach && math.Abs(c[1]-info.Axis[1]) <= reach {
			s.erodible = append(s.erodible, int32(e))
		}
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
	for v, b := range s.nodeBody {
		if b == meshgen.Projectile {
			s.m.Coords[v][2] -= dz
		}
	}
	s.deformPlates()
}

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
	for v, b := range s.nodeBody {
		if b == meshgen.Projectile {
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

// erodeHalf is the half-width of the eroded channel.
func (s *Sim) erodeHalf() float64 { return s.projHalf + s.cfg.ErodeMargin*s.cell }

// centroid returns the centroid of element e.
func (s *Sim) centroid(e int) geom.Point {
	nodes := s.m.ElemNodes(e)
	var cx, cy, cz float64
	for _, n := range nodes {
		cx += s.m.Coords[n][0]
		cy += s.m.Coords[n][1]
		cz += s.m.Coords[n][2]
	}
	k := float64(len(nodes))
	return geom.P3(cx/k, cy/k, cz/k)
}

// inChannel reports whether element e is swallowed by the penetration
// channel: its centroid lies inside the (slightly widened) square
// channel and above the current tip depth.
func (s *Sim) inChannel(e int) bool {
	half, c := s.erodeHalf(), s.centroid(e)
	return math.Abs(c[0]-s.info.Axis[0]) <= half && math.Abs(c[1]-s.info.Axis[1]) <= half && c[2] >= s.tipZ
}

// erode removes the plate elements in the channel. Only the erodible
// elements are tested.
func (s *Sim) erode() {
	s.dead = s.dead[:0]
	keep := s.erodible[:0]
	for _, e := range s.erodible {
		if s.inChannel(int(e)) {
			s.dead = append(s.dead, e)
		} else {
			// Every eroded element is erodible, so the ones removed
			// before e are exactly those found so far.
			keep = append(keep, e-int32(len(s.dead)))
		}
	}
	s.erodible = keep
	if len(s.dead) == 0 {
		return
	}
	s.facets.Erode(s.m, s.dead)
	s.compact()
}

// compact removes the dead elements and the nodes that only they
// referenced, in place. Surviving elements keep their order; surviving
// nodes are renumbered in order of first use by them and keep their
// persistent ids, bodies and displacements.
func (s *Sim) compact() {
	m := s.m
	// Once compact has numbered the nodes in order of first use, the
	// elements before the first dead one use exactly nodes 0..p-1,
	// which keep their numbers: only the rest needs renumbering.
	start, p := 0, 0
	if s.firstUse {
		start = int(s.dead[0])
		for _, n := range m.ENodes[:m.EPtr[start]] {
			p = max(p, int(n)+1)
		}
	}
	newIdx := s.newIdx[:m.NumNodes()]
	for i := range newIdx {
		if newIdx[i] = -1; i < p {
			newIdx[i] = int32(i)
		}
	}
	coords := append(s.spareCoord[:0], m.Coords[:p]...)
	ids := append(s.spareID[:0], s.nodeID[:p]...)
	bodies := append(s.spareBody[:0], s.nodeBody[:p]...)
	disp := append(s.spareDisp[:0], s.disp[:p]...)
	dead := s.dead
	ne, w, nw := m.NumElems(), start, m.EPtr[start] // next element and node-list slot
	for e := start; e < ne; e++ {
		if len(dead) > 0 && int(dead[0]) == e {
			dead = dead[1:]
			continue
		}
		// Writes trail reads (w <= e, nw <= EPtr[e]), so every entry is
		// read before it is overwritten.
		for _, n := range m.ENodes[m.EPtr[e]:m.EPtr[e+1]] {
			if newIdx[n] < 0 {
				newIdx[n] = int32(len(coords))
				coords = append(coords, m.Coords[n])
				ids = append(ids, s.nodeID[n])
				bodies = append(bodies, s.nodeBody[n])
				disp = append(disp, s.disp[n])
			}
			m.ENodes[nw] = newIdx[n]
			nw++
		}
		m.Types[w] = m.Types[e]
		s.elemBody[w] = s.elemBody[e]
		w++
		m.EPtr[w] = nw
	}
	m.Types, m.EPtr, m.ENodes, s.elemBody = m.Types[:w], m.EPtr[:w+1], m.ENodes[:nw], s.elemBody[:w]
	m.Coords, s.spareCoord = coords, m.Coords
	s.nodeID, s.spareID = ids, s.nodeID
	s.nodeBody, s.spareBody = bodies, s.nodeBody
	s.disp, s.spareDisp = disp, s.disp
	s.firstUse = true
}

// Snapshot erodes, re-designates the contact surface, and returns a
// deep copy of the current state.
func (s *Sim) Snapshot(index int) Snapshot {
	s.erode()
	meshgen.DesignateContactBy(s.m, s.facets.Boundary(s.m), s.info.Axis, s.cfg.Scene.ContactRadius, s.cfg.Scene.FullFaces, func(e int32) bool {
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
