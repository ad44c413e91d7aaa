package meshgen

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mesh"
)

// SceneConfig parameterizes the projectile/two-plate impact scene. The
// zero value is not usable; start from DefaultScene().
type SceneConfig struct {
	// Refine scales the resolution of every body; Refine=1 gives a
	// ~10k-node scene, Refine=2 ~64k, Refine=3 ~200k (paper scale).
	Refine int
	// Tets selects 6-tet-per-hex elements (the EPIC flavor); false
	// keeps hexahedra.
	Tets bool
	// PlateNX/PlateNY/PlateNZ are the base cell counts of each plate
	// (before refinement); ProjN and ProjLen the projectile's square
	// cross-section and length in cells.
	PlateNX, PlateNY, PlateNZ int
	ProjN, ProjLen            int
	// Cell is the base cell size; Gap the spacing between the plates;
	// Clearance the initial projectile standoff above plate 1.
	Cell, Gap, Clearance float64
	// ContactRadius designates the contact patch: plate facets whose
	// centroid lies within this xy-distance of the impact axis are
	// flagged as contact surfaces (the projectile's whole boundary
	// always is).
	ContactRadius float64
	// FullFaces additionally designates every *horizontal* plate
	// boundary facet (the full top and bottom faces) as contact
	// surface, matching the EPIC dataset's slide surfaces; the
	// ContactRadius patch then only adds the crater walls that erosion
	// exposes.
	FullFaces bool
	// ImpactOffsetX/Y shift the impact axis (and the projectile) away
	// from the plate center, for oblique-scenario studies. The offset
	// must keep the projectile's footprint inside the plates.
	ImpactOffsetX, ImpactOffsetY float64
}

// DefaultScene returns the configuration used by the benchmarks at
// Refine=1 (roughly 10k nodes with ~12% contact nodes, mirroring the
// paper's 13%).
func DefaultScene() SceneConfig {
	return SceneConfig{
		Refine:        1,
		Tets:          true,
		PlateNX:       30,
		PlateNY:       30,
		PlateNZ:       4,
		ProjN:         4,
		ProjLen:       16,
		Cell:          1.0,
		Gap:           3.0,
		Clearance:     1.0,
		ContactRadius: 8.0,
	}
}

// Body identifies one of the three bodies in the scene.
type Body int

const (
	Plate1     Body = iota // upper plate (hit first)
	Plate2                 // lower plate
	Projectile             // penetrator
)

func (b Body) String() string {
	switch b {
	case Plate1:
		return "plate1"
	case Plate2:
		return "plate2"
	case Projectile:
		return "projectile"
	}
	return fmt.Sprintf("Body(%d)", int(b))
}

// Range is a half-open index interval [Lo, Hi).
type Range struct{ Lo, Hi int32 }

// Contains reports whether i is inside the range.
func (r Range) Contains(i int32) bool { return i >= r.Lo && i < r.Hi }

// Len returns Hi-Lo.
func (r Range) Len() int { return int(r.Hi - r.Lo) }

// SceneInfo records the geometry bookkeeping of a generated scene; the
// simulator uses it to advance the projectile and erode the plates.
type SceneInfo struct {
	Cfg       SceneConfig
	Nodes     [3]Range // node index range per Body
	Elems     [3]Range // element index range per Body
	Axis      geom.Point
	Plate1Top float64
	Plate1Bot float64
	Plate2Top float64
	Plate2Bot float64
	ProjTip   float64 // initial z of the projectile's lowest face
	// Facets is the facet matching of the generated mesh. The simulator
	// erodes it along with the mesh instead of matching every snapshot.
	Facets *mesh.FacetCounts
}

// BodyOfElem returns which body element e belongs to. ok is false
// when e lies outside every body's element range (a stale or corrupt
// id — e.g. after erosion invalidated the ranges); callers decide
// whether that is an error.
func (si *SceneInfo) BodyOfElem(e int32) (Body, bool) {
	for b := Plate1; b <= Projectile; b++ {
		if si.Elems[b].Contains(e) {
			return b, true
		}
	}
	return Body(-1), false
}

// ProjectileScene builds the scene: two stacked plates and a square-rod
// projectile poised above them on the impact axis. The returned mesh
// has its contact surface designated per cfg.ContactRadius.
func ProjectileScene(cfg SceneConfig) (*mesh.Mesh, *SceneInfo, error) {
	if cfg.Refine < 1 {
		return nil, nil, fmt.Errorf("%w: Refine = %d, want >= 1", ErrBadSpec, cfg.Refine)
	}
	if cfg.PlateNX < 2 || cfg.PlateNY < 2 || cfg.PlateNZ < 1 || cfg.ProjN < 1 || cfg.ProjLen < 1 {
		return nil, nil, fmt.Errorf("%w: degenerate cell counts in %+v", ErrBadSpec, cfg)
	}
	if !finite(cfg.Cell, cfg.Gap, cfg.Clearance, cfg.ContactRadius, cfg.ImpactOffsetX, cfg.ImpactOffsetY) {
		return nil, nil, fmt.Errorf("%w: non-finite geometry in %+v", ErrBadSpec, cfg)
	}
	if cfg.Cell <= 0 {
		return nil, nil, fmt.Errorf("%w: Cell = %g, want > 0", ErrBadSpec, cfg.Cell)
	}
	if cfg.Gap < 0 || cfg.Clearance < 0 || cfg.ContactRadius < 0 {
		return nil, nil, fmt.Errorf("%w: negative Gap/Clearance/ContactRadius in %+v", ErrBadSpec, cfg)
	}
	r := cfg.Refine
	h := cfg.Cell / float64(r)
	nx, ny, nz := cfg.PlateNX*r, cfg.PlateNY*r, cfg.PlateNZ*r
	pn, pl := cfg.ProjN*r, cfg.ProjLen*r

	plateW := float64(cfg.PlateNX) * cfg.Cell
	plateD := float64(cfg.PlateNY) * cfg.Cell
	plateT := float64(cfg.PlateNZ) * cfg.Cell
	cx, cy := plateW/2+cfg.ImpactOffsetX, plateD/2+cfg.ImpactOffsetY
	projW0 := float64(cfg.ProjN) * cfg.Cell
	if cx-projW0/2 < 0 || cx+projW0/2 > plateW || cy-projW0/2 < 0 || cy+projW0/2 > plateD {
		return nil, nil, fmt.Errorf("%w: impact offset (%g, %g) pushes the projectile off the plates", ErrBadSpec, cfg.ImpactOffsetX, cfg.ImpactOffsetY)
	}

	si := &SceneInfo{
		Cfg:       cfg,
		Axis:      geom.P3(cx, cy, 0),
		Plate2Bot: 0,
		Plate2Top: plateT,
		Plate1Bot: plateT + cfg.Gap,
		Plate1Top: plateT + cfg.Gap + plateT,
	}
	si.ProjTip = si.Plate1Top + cfg.Clearance

	build := func(s BoxSpec) (*mesh.Mesh, error) {
		if cfg.Tets {
			return StructuredTetBox(s)
		}
		return StructuredBox(s)
	}

	plate1, err := build(BoxSpec{
		Nx: nx, Ny: ny, Nz: nz,
		Origin: geom.P3(0, 0, si.Plate1Bot),
		H:      geom.P3(h, h, h),
	})
	if err != nil {
		return nil, nil, err
	}
	plate2, err := build(BoxSpec{
		Nx: nx, Ny: ny, Nz: nz,
		Origin: geom.P3(0, 0, si.Plate2Bot),
		H:      geom.P3(h, h, h),
	})
	if err != nil {
		return nil, nil, err
	}
	projW := float64(cfg.ProjN) * cfg.Cell
	proj, err := build(BoxSpec{
		Nx: pn, Ny: pn, Nz: pl,
		Origin: geom.P3(cx-projW/2, cy-projW/2, si.ProjTip),
		H:      geom.P3(h, h, h),
	})
	if err != nil {
		return nil, nil, err
	}

	m := &mesh.Mesh{Dim: 3, EPtr: []int32{0}}
	bodies := [3]*mesh.Mesh{Plate1: plate1, Plate2: plate2, Projectile: proj}
	for b := Plate1; b <= Projectile; b++ {
		nOff, eOff, err := Append(m, bodies[b])
		if err != nil {
			return nil, nil, err
		}
		si.Nodes[b] = Range{Lo: nOff, Hi: nOff + int32(bodies[b].NumNodes())}
		si.Elems[b] = Range{Lo: eOff, Hi: eOff + int32(bodies[b].NumElems())}
	}

	si.Facets = m.CountFacets()
	DesignateContactBy(m, si.Facets.Boundary(m), si.Axis, cfg.ContactRadius, cfg.FullFaces, func(e int32) bool {
		b, ok := si.BodyOfElem(e)
		return ok && b == Projectile
	})
	if err := m.Validate(); err != nil {
		return nil, nil, fmt.Errorf("meshgen: generated scene invalid: %w", err)
	}
	return m, si, nil
}

// DesignateContactBy designates the mesh's contact surface among its
// boundary facets, as m.BoundaryFacets returns them: every projectile
// facet, every plate facet whose centroid lies within radius of the
// impact axis (in xy), and, when fullFaces is set, every horizontal
// plate facet. The contact facets become m.Surface, which reuses
// facets' storage. isProjectile reports whether an element id belongs
// to the projectile; the simulator maps it through erosion, which
// invalidates SceneInfo's element ranges.
func DesignateContactBy(m *mesh.Mesh, facets []mesh.SurfaceElem, axis geom.Point, radius float64, fullFaces bool, isProjectile func(e int32) bool) {
	surf := facets[:0]
	for _, f := range facets {
		if isProjectile(f.Elem) {
			surf = append(surf, f)
			continue
		}
		if fullFaces && horizontalFacet(m, f) {
			surf = append(surf, f)
			continue
		}
		// Plate facet: keep if its centroid is inside the contact patch.
		var cxx, cyy float64
		for _, n := range f.Nodes {
			cxx += m.Coords[n][0]
			cyy += m.Coords[n][1]
		}
		k := float64(len(f.Nodes))
		cxx /= k
		cyy /= k
		dx, dy := cxx-axis[0], cyy-axis[1]
		if math.Sqrt(dx*dx+dy*dy) <= radius {
			surf = append(surf, f)
		}
	}
	m.Surface = surf
}

// horizontalFacet reports whether a 3D facet's normal is predominantly
// vertical (the facet lies in a plate's top or bottom face). 2D meshes
// always report false.
func horizontalFacet(m *mesh.Mesh, f mesh.SurfaceElem) bool {
	if m.Dim != 3 || len(f.Nodes) < 3 {
		return false
	}
	a := m.Coords[f.Nodes[0]]
	b := m.Coords[f.Nodes[1]]
	c := m.Coords[f.Nodes[2]]
	u := b.Sub(a)
	v := c.Sub(a)
	nx := u[1]*v[2] - u[2]*v[1]
	ny := u[2]*v[0] - u[0]*v[2]
	nz := u[0]*v[1] - u[1]*v[0]
	n2 := nx*nx + ny*ny + nz*nz
	if n2 == 0 {
		return false
	}
	return nz*nz > 0.8*n2
}

// HorizontalFacetForTest exposes the horizontal-facet classifier for
// tests.
func HorizontalFacetForTest(m *mesh.Mesh, f mesh.SurfaceElem) bool {
	return horizontalFacet(m, f)
}
