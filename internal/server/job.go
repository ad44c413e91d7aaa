package server

// Job specs and results. A job is JSON in, job id out: either
// "partition this graph" (the CSR arrays travel in the request) or
// "run this evaluation sweep" (the synthetic scene is regenerated
// server-side, deterministically, from its parameters). Every
// result-affecting field of a spec feeds the job hash, which keys both
// the result cache and the checkpoint spool — two submissions with the
// same hash are the same work.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/backend"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Kind discriminates the two job payloads.
type Kind string

const (
	// KindGraph partitions a submitted graph: CSR in, labels out.
	KindGraph Kind = "graph"
	// KindSweep runs the paper's evaluation harness over a synthetic
	// scene generated server-side from the sweep parameters.
	KindSweep Kind = "sweep"
)

// GraphSpec is the wire form of a partitioning input: the CSR arrays
// of the weighted graph plus optional coordinates for the geometric
// backends. Zero-value AdjWgt/VWgt mean unit weights.
type GraphSpec struct {
	// NCon is the number of vertex-weight components (>= 1).
	NCon int `json:"ncon"`
	// Xadj/Adj/AdjWgt are the CSR adjacency (each undirected edge
	// stored in both endpoint lists). AdjWgt defaults to all-ones.
	Xadj   []int32 `json:"xadj"`
	Adj    []int32 `json:"adj"`
	AdjWgt []int32 `json:"adjwgt,omitempty"`
	// VWgt holds NCon weights per vertex, vertex-major. Defaults to
	// all-ones.
	VWgt []int32 `json:"vwgt,omitempty"`
	// Dim/Coords carry node coordinates (vertex-major, Dim per vertex)
	// for backends with the NeedsCoords capability.
	Dim    int       `json:"dim,omitempty"`
	Coords []float64 `json:"coords,omitempty"`
}

// NV returns the vertex count implied by Xadj.
func (gs *GraphSpec) NV() int {
	if len(gs.Xadj) == 0 {
		return 0
	}
	return len(gs.Xadj) - 1
}

// shapeCheck validates the cheap structural invariants — O(1), safe to
// run in the submit path against untrusted input. The O(E) deep
// validation (graph.Validate) runs in the worker.
func (gs *GraphSpec) shapeCheck(maxVertices int) error {
	nv := gs.NV()
	switch {
	case nv < 1:
		return fmt.Errorf("graph: empty xadj")
	case nv > maxVertices:
		return fmt.Errorf("graph: %d vertices exceeds the server cap of %d", nv, maxVertices)
	case gs.NCon < 1 || gs.NCon > 8:
		return fmt.Errorf("graph: ncon %d, want 1..8", gs.NCon)
	case gs.Xadj[0] != 0 || int(gs.Xadj[nv]) != len(gs.Adj):
		return fmt.Errorf("graph: xadj endpoints [%d,%d] do not frame adj of length %d", gs.Xadj[0], gs.Xadj[nv], len(gs.Adj))
	case gs.AdjWgt != nil && len(gs.AdjWgt) != len(gs.Adj):
		return fmt.Errorf("graph: %d adjwgt for %d adj", len(gs.AdjWgt), len(gs.Adj))
	case gs.VWgt != nil && len(gs.VWgt) != nv*gs.NCon:
		return fmt.Errorf("graph: %d vwgt for %d vertices x %d constraints", len(gs.VWgt), nv, gs.NCon)
	case gs.Coords != nil && (gs.Dim < 1 || gs.Dim > 3):
		return fmt.Errorf("graph: coords with dim %d, want 1..3", gs.Dim)
	case gs.Coords != nil && len(gs.Coords) != nv*gs.Dim:
		return fmt.Errorf("graph: %d coords for %d vertices x dim %d", len(gs.Coords), nv, gs.Dim)
	}
	return nil
}

// Build materializes the graph (and coordinates, when present) and
// runs the deep validation. Runs in the worker, inside the job's
// panic/deadline envelope.
func (gs *GraphSpec) Build() (*graph.Graph, []geom.Point, error) {
	nv := gs.NV()
	g := &graph.Graph{NCon: gs.NCon, Xadj: gs.Xadj, Adj: gs.Adj, AdjWgt: gs.AdjWgt, VWgt: gs.VWgt}
	if g.AdjWgt == nil {
		g.AdjWgt = make([]int32, len(gs.Adj))
		for i := range g.AdjWgt {
			g.AdjWgt[i] = 1
		}
	}
	if g.VWgt == nil {
		g.VWgt = make([]int32, nv*gs.NCon)
		for i := range g.VWgt {
			g.VWgt[i] = 1
		}
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	var coords []geom.Point
	if gs.Coords != nil {
		coords = make([]geom.Point, nv)
		for v := 0; v < nv; v++ {
			for d := 0; d < gs.Dim; d++ {
				coords[v][d] = gs.Coords[v*gs.Dim+d]
			}
		}
	}
	return g, coords, nil
}

// SweepSpec parameterizes a server-side evaluation sweep: the
// synthetic projectile scene (regenerated deterministically from
// Refine/Snapshots/Steps) swept over the listed partition counts.
type SweepSpec struct {
	// Refine is the scene refinement (1 = ~10k nodes; default 1).
	Refine int `json:"refine,omitempty"`
	// Snapshots is the number of mesh snapshots measured (>= 1).
	Snapshots int `json:"snapshots"`
	// Steps is the kinematic step count (default 4x snapshots,
	// minimum 40; at most maxSteps, and at least Snapshots).
	Steps int `json:"steps,omitempty"`
	// Ks are the partition counts of the sweep (each >= 1).
	Ks []int `json:"ks"`
	// Seed drives every randomized phase; Backend selects the MCML+DT
	// partitioning backend; Adaptive enables the warm-start drift
	// policy.
	Seed     int64  `json:"seed,omitempty"`
	Backend  string `json:"backend,omitempty"`
	Adaptive bool   `json:"adaptive,omitempty"`
}

func (ss *SweepSpec) withDefaults() SweepSpec {
	out := *ss
	if out.Refine == 0 {
		out.Refine = 1
	}
	if out.Steps == 0 {
		out.Steps = 4 * out.Snapshots
		if out.Steps < 40 {
			out.Steps = 40
		}
	}
	return out
}

// simConfig is the deterministic scene recipe of the sweep. Equal
// specs (post-defaults) produce equal snapshot sequences, which is
// what makes drain + restart + resubmit byte-identical.
func (ss SweepSpec) simConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scene.Refine = ss.Refine
	cfg.Snapshots = ss.Snapshots
	cfg.Steps = ss.Steps
	return cfg
}

// sceneKey identifies the snapshot sequence a sweep runs on (the
// scene cache key — independent of Ks/Seed/Backend, which do not
// change the mesh sequence).
func (ss SweepSpec) sceneKey() string {
	return fmt.Sprintf("refine=%d,snapshots=%d,steps=%d", ss.Refine, ss.Snapshots, ss.Steps)
}

// harnessConfigs expands the sweep into per-k harness configs. col is
// the per-job collector.
func (ss SweepSpec) harnessConfigs(col *obs.Collector) []harness.Config {
	cfgs := make([]harness.Config, len(ss.Ks))
	for i, k := range ss.Ks {
		cfgs[i] = harness.Config{
			K: k, Seed: ss.Seed, Backend: ss.Backend, Adaptive: ss.Adaptive, Obs: col,
		}
	}
	return cfgs
}

// JobSpec is the submit-a-job request body.
type JobSpec struct {
	Kind Kind `json:"kind"`

	// Graph-job fields.
	Graph     *GraphSpec `json:"graph,omitempty"`
	K         int        `json:"k,omitempty"`
	Backend   string     `json:"backend,omitempty"`
	Seed      int64      `json:"seed,omitempty"`
	Imbalance float64    `json:"imbalance,omitempty"`

	// Sweep-job fields.
	Sweep *SweepSpec `json:"sweep,omitempty"`

	// TimeoutMS bounds the job's wall clock in milliseconds (0 =
	// server default; capped at the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// maxK caps the partition count of both job kinds: KWay's cost grows
// linearly in k even on a tiny graph, so an unbounded k would hold a
// worker until the job's deadline.
const maxK = 1024

// maxSteps caps a sweep's kinematic step count. It covers the shipped
// profiles (400 steps) and the paper's 3,768-step sequence.
const maxSteps = 4000

// validate rejects malformed specs in the submit path. maxVertices is
// the server's graph-size cap.
func (js *JobSpec) validate(maxVertices int) error {
	switch js.Kind {
	case KindGraph:
		if js.Graph == nil {
			return fmt.Errorf("graph job without a graph")
		}
		if js.Sweep != nil {
			return fmt.Errorf("graph job with sweep fields")
		}
		if js.K < 1 || js.K > maxK {
			return fmt.Errorf("graph job: k = %d, want 1..%d", js.K, maxK)
		}
		if js.Imbalance < 0 || js.Imbalance >= 1 {
			return fmt.Errorf("graph job: imbalance %g, want [0,1)", js.Imbalance)
		}
		be, err := backend.Lookup(js.Backend)
		if err != nil {
			return err
		}
		if be.Caps().NeedsCoords {
			// The geometric backends partition 2-D or 3-D points only.
			switch {
			case js.Graph.Coords == nil:
				return fmt.Errorf("backend %q needs coordinates and the graph has none", be.Name())
			case js.Graph.Dim != 2 && js.Graph.Dim != 3:
				return fmt.Errorf("backend %q needs dim 2 or 3, got %d", be.Name(), js.Graph.Dim)
			}
		}
		return js.Graph.shapeCheck(maxVertices)
	case KindSweep:
		if js.Sweep == nil {
			return fmt.Errorf("sweep job without sweep parameters")
		}
		if js.Graph != nil {
			return fmt.Errorf("sweep job with graph fields")
		}
		s := js.Sweep
		if s.Snapshots < 1 || s.Snapshots > 200 {
			return fmt.Errorf("sweep job: snapshots = %d, want 1..200", s.Snapshots)
		}
		if s.Refine < 0 || s.Refine > 3 {
			return fmt.Errorf("sweep job: refine = %d, want 0..3", s.Refine)
		}
		// sim.Run takes no context, so the step count bounds scene
		// generation time before the job is queued.
		if s.Steps != 0 && (s.Steps < s.Snapshots || s.Steps > maxSteps) {
			return fmt.Errorf("sweep job: steps = %d, want %d..%d (or 0 for the default)", s.Steps, s.Snapshots, maxSteps)
		}
		if len(s.Ks) == 0 {
			return fmt.Errorf("sweep job: no ks")
		}
		for _, k := range s.Ks {
			if k < 1 || k > maxK {
				return fmt.Errorf("sweep job: k = %d, want 1..%d", k, maxK)
			}
		}
		be, err := backend.Lookup(s.Backend)
		if err != nil {
			return err
		}
		if s.Adaptive && !be.Caps().Warmstart {
			return fmt.Errorf("sweep job: adaptive needs a warm-start-capable backend, %q is not", be.Name())
		}
		return nil
	default:
		return fmt.Errorf("unknown job kind %q (want %q or %q)", js.Kind, KindGraph, KindSweep)
	}
}

// hash binds a spec to its work: every result-affecting field, in a
// fixed binary encoding. It keys the result cache and the checkpoint
// spool; TimeoutMS is deliberately excluded (a retry with a longer
// deadline must find the shorter run's checkpoint).
func (js *JobSpec) hash() string {
	h := sha256.New()
	w := func(vs ...any) {
		for _, v := range vs {
			// The hash input is fixed-width binary; sha256.Write never
			// fails and binary.Write over it cannot either.
			_ = binary.Write(h, binary.LittleEndian, v)
		}
	}
	w([]byte(js.Kind))
	switch js.Kind {
	case KindGraph:
		gs := js.Graph
		w(int64(js.K), js.Seed, math.Float64bits(js.Imbalance))
		w([]byte(js.Backend), byte(0))
		w(int64(gs.NCon), int64(gs.Dim), int64(len(gs.Adj)))
		w(gs.Xadj, gs.Adj)
		w(int64(len(gs.AdjWgt)))
		w(gs.AdjWgt)
		w(int64(len(gs.VWgt)))
		w(gs.VWgt)
		w(int64(len(gs.Coords)))
		w(gs.Coords)
	case KindSweep:
		ss := js.Sweep.withDefaults()
		w(int64(ss.Refine), int64(ss.Snapshots), int64(ss.Steps), ss.Seed, ss.Adaptive)
		w([]byte(ss.Backend), byte(0))
		w(int64(len(ss.Ks)))
		for _, k := range ss.Ks {
			w(int64(k))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// timeout resolves the job's deadline against the server bounds.
func (js *JobSpec) timeout(def, max time.Duration) time.Duration {
	d := time.Duration(js.TimeoutMS) * time.Millisecond
	if d <= 0 {
		d = def
	}
	if d > max {
		d = max
	}
	return d
}

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: accepted, waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning: executing on a worker.
	StatusRunning Status = "running"
	// StatusDone: finished; Result holds the payload.
	StatusDone Status = "done"
	// StatusFailed: the payload returned an error, panicked (the panic
	// is isolated to the job), or overran its deadline.
	StatusFailed Status = "failed"
	// StatusCanceled: cancelled by the client before completion.
	StatusCanceled Status = "canceled"
	// StatusDrained: interrupted mid-run by server drain. Sweep
	// progress up to the drain is durable in the checkpoint spool;
	// resubmitting the same spec after restart resumes it.
	StatusDrained Status = "drained"
	// StatusDrainedQueued: still queued when the server drained; never
	// started. Resubmit after restart.
	StatusDrainedQueued Status = "drained_queued"
)

// terminal reports whether a status is final.
func (s Status) terminal() bool {
	switch s {
	case StatusDone, StatusFailed, StatusCanceled, StatusDrained, StatusDrainedQueued:
		return true
	}
	return false
}

// GraphResult is a graph job's payload result.
type GraphResult struct {
	Labels []int32 `json:"labels"`
	// Cut is the edge cut of the labels; Imbalances the per-constraint
	// load imbalance (max part weight over perfect share).
	Cut        int64     `json:"cut"`
	Imbalances []float64 `json:"imbalances"`
}

// SweepResult is a sweep job's payload result: the harness results in
// k order. Only deterministic fields are serialized, so a drained,
// restarted, and resubmitted sweep marshals byte-identically to an
// uninterrupted one.
type SweepResult struct {
	Results []*harness.Result `json:"results"`
}

// Job is one submitted unit of work and its lifecycle record. Fields
// are guarded by the server mutex; JobView is the lock-free snapshot
// handed to the HTTP layer.
type Job struct {
	id   string
	seq  int64 // submission sequence number (fault-plan identity)
	key  string
	hash string
	spec JobSpec

	status  Status
	err     string
	result  []byte // marshaled GraphResult / SweepResult JSON
	cached  bool   // served from the result cache
	resumed bool   // sweep resumed from a drained run's checkpoint

	obsReport  *obs.Report // per-job collector snapshot, set at finish
	cancel     func()      // cancels the running payload (nil until running)
	clientStop bool        // cancel() was requested by the client
	done       chan struct{}
	logged     chan struct{} // closed once Submit has logged the job

	submitted time.Time
	wallNS    int64 // queue + run wall clock, set at finish
}

// JobView is the exported snapshot of a job (the GET /jobs/{id} body).
type JobView struct {
	ID     string `json:"id"`
	Kind   Kind   `json:"kind"`
	Status Status `json:"status"`
	// Hash is the work identity (cache/spool key) of the spec.
	Hash string `json:"hash"`
	// Cached: the result came from the LRU result cache. Resumed: the
	// sweep fast-forwarded from a drained run's checkpoint.
	Cached  bool   `json:"cached,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`
	Error   string `json:"error,omitempty"`
	// Result is the payload result JSON (GraphResult or SweepResult)
	// when Status is "done".
	Result []byte `json:"-"`
	// WallNS is submit-to-finish wall clock, 0 until terminal.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Obs is the per-job observability report (phases, counters,
	// histograms), set at finish.
	Obs *obs.Report `json:"obs,omitempty"`
}

// view snapshots a job. Caller holds the server mutex.
func (j *Job) view() JobView {
	return JobView{
		ID:      j.id,
		Kind:    j.spec.Kind,
		Status:  j.status,
		Hash:    j.hash,
		Cached:  j.cached,
		Resumed: j.resumed,
		Error:   j.err,
		Result:  j.result,
		WallNS:  j.wallNS,
		Obs:     j.obsReport,
	}
}
