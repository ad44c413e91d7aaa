// Package engine executes one iteration of the parallel contact/impact
// computation that the paper's decompositions exist to serve, using k
// concurrent workers that communicate only by message passing (an
// abstract rank-to-rank Transport standing in for MPI):
//
//	phase 1 (FE):       each worker updates its own nodes and sends
//	                    ghost copies of boundary nodes to the
//	                    partitions that neighbor them — the traffic
//	                    FEComm predicts;
//	phase 2 (global search): the contact-point decision tree is
//	                    *broadcast* (serialized and re-parsed per
//	                    worker, as Section 4.1.1 requires), each worker
//	                    filters its surface elements through it and
//	                    ships them to candidate partitions — the
//	                    traffic NRemote predicts;
//	phase 3 (local search): each worker runs exact narrow-phase
//	                    detection between its own and received
//	                    elements.
//
// The engine reports the realized communication volumes so tests can
// assert they equal the analytic metrics, and the detected contact
// pairs so tests can assert parity with serial detection.
//
// On top of the transport the engine layers fault tolerance (see
// resilient.go): per-phase deadlines, sequence-numbered batches with
// acknowledgement and bounded-backoff resend (receiver-side dedup
// keeps retries invisible in Stats), and rank-failure detection that
// degrades gracefully — when a rank is unrecoverable the iteration is
// re-executed serially and the Stats are marked Degraded/Recovered
// instead of the whole run erroring.
package engine

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/contact"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// Stats is the outcome of one parallel iteration.
type Stats struct {
	K int
	// GhostUnits counts (node, destination-partition) copies sent in
	// phase 1; it equals metrics.CommVolume of the nodal partition.
	GhostUnits int64
	// ElemsShipped counts (surface element, destination) shipments in
	// phase 2; it equals the NRemote metric for the same filter.
	ElemsShipped int64
	// TreeBytes is the size of the serialized descriptor broadcast to
	// every worker.
	TreeBytes int64
	// Pairs are the contacts detected across all workers, deduplicated
	// and sorted (A < B).
	Pairs []contact.Pair
	// PerWorker holds per-rank tallies.
	PerWorker []WorkerStats
	// Degraded records that the concurrent iteration failed (a rank
	// panicked, stalled past its deadline, or received a corrupt
	// broadcast) and Recovered that the serial re-execution salvaged
	// it; FailedRanks lists the ranks that caused the failure. The
	// numeric results of a recovered iteration are identical to a
	// fault-free run.
	Degraded    bool
	Recovered   bool
	FailedRanks []int
}

// WorkerStats tallies one worker's traffic. All counts are logical:
// a batch retransmitted by the fault-tolerance layer is counted once,
// so Stats are identical whether or not retries happened.
type WorkerStats struct {
	OwnedNodes    int
	OwnedElems    int
	GhostsSent    int64
	GhostsRecv    int64
	ElemsSent     int64
	ElemsRecv     int64
	PairsDetected int
}

// Run executes one iteration for the decomposition d of mesh m.
// tol is the narrow-phase contact tolerance; element shipping uses the
// sound inflation tol + MaxFacetDiameter so no contact can be lost.
// opts configures observability and the resilience layer (transport,
// fault injection, deadlines, retry budget); the zero value is a plain
// fault-free iteration. With opts.Obs set, each worker's global-search
// and local-search wall time is recorded under the canonical
// "global_search" / "local_search" phases (count = k, total =
// aggregate busy time across workers), plus the realized traffic
// counters.
//
// Cancelling ctx abandons the iteration and returns ctx.Err(); a
// cancelled run is never re-executed by the serial fallback, which
// only recovers rank failures.
func Run(ctx context.Context, m *mesh.Mesh, d *core.Decomposition, tol float64, opts Options) (*Stats, error) {
	if d.Cfg.K < 1 {
		return nil, fmt.Errorf("engine: k = %d", d.Cfg.K)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	it, err := buildIteration(m, d, tol)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	st, failed, perr := it.runParallel(ctx, opts)
	if perr == nil {
		st.finalize(opts.Obs)
		return st, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.NoDegrade {
		return nil, perr
	}

	// Graceful degradation: re-execute the iteration serially from the
	// pristine inputs. The serial path computes the same logical
	// traffic and the same pairs, so a recovered iteration is
	// numerically indistinguishable from a fault-free one.
	opts.Obs.Add("engine_degraded_iters", 1)
	obs.SpanFromContext(ctx).Event("serial_degrade", obs.Int("failed_ranks", int64(len(failed))))
	st, serr := it.runSerial(ctx, opts)
	if serr != nil {
		return nil, fmt.Errorf("engine: parallel iteration failed (%v) and serial recovery failed: %w", perr, serr)
	}
	st.Degraded = true
	st.Recovered = true
	st.FailedRanks = failed
	st.finalize(opts.Obs)
	return st, nil
}

// finalize derives the aggregate counters from the per-worker tallies
// and reports them to the collector.
func (st *Stats) finalize(col *obs.Collector) {
	st.GhostUnits, st.ElemsShipped = 0, 0
	for p := range st.PerWorker {
		st.GhostUnits += st.PerWorker[p].GhostsSent
		st.ElemsShipped += st.PerWorker[p].ElemsSent
		col.Hist("rank_pairs", int64(st.PerWorker[p].PairsDetected))
	}
	col.Add("ghost_units", st.GhostUnits)
	col.Add("elems_shipped", st.ElemsShipped)
	col.Add("tree_bytes", st.TreeBytes)
	col.Add("pairs_detected", int64(len(st.Pairs)))
}

// iteration is the immutable per-iteration state shared by the
// concurrent attempt and the serial fallback: the serialized broadcast
// tree, the ownership tables, and the phase-1 send lists. Building it
// up front means the fallback re-executes from pristine inputs no
// matter what the fault injection did to the concurrent attempt.
type iteration struct {
	m       *mesh.Mesh
	d       *core.Decomposition
	tol     float64
	k       int
	treeBuf []byte
	owners  []int32
	boxes   []geom.AABB
	nodesOf [][]int32
	elemsOf [][]int32
	// ghostSend[from][to] lists the boundary nodes from sends to in
	// phase 1 (computed from the nodal graph adjacency).
	ghostSend [][][]int32
}

func buildIteration(m *mesh.Mesh, d *core.Decomposition, tol float64) (*iteration, error) {
	k := d.Cfg.K
	labels := d.Labels

	// Broadcast the descriptor tree: serialize once, parse per worker.
	var treeBuf bytes.Buffer
	if _, err := d.Descriptor.WriteTo(&treeBuf); err != nil {
		return nil, err
	}

	it := &iteration{
		m: m, d: d, tol: tol, k: k,
		treeBuf: treeBuf.Bytes(),
		owners:  contact.SurfaceOwners(m, labels),
	}
	searchTol := tol + contact.MaxFacetDiameter(m)
	it.boxes = contact.SurfaceBoxes(m, searchTol)

	// Ownership tables.
	it.nodesOf = make([][]int32, k)
	for v := 0; v < m.NumNodes(); v++ {
		p := labels[v]
		it.nodesOf[p] = append(it.nodesOf[p], int32(v))
	}
	it.elemsOf = make([][]int32, k)
	for e, p := range it.owners {
		it.elemsOf[p] = append(it.elemsOf[p], int32(e))
	}

	// Phase-1 send lists: node v goes to every distinct neighbor
	// partition.
	g := d.Graph
	it.ghostSend = make([][][]int32, k)
	for p := 0; p < k; p++ {
		it.ghostSend[p] = make([][]int32, k)
	}
	seen := make([]int32, k)
	stamp := int32(0)
	for v := 0; v < m.NumNodes(); v++ {
		own := labels[v]
		stamp++
		for _, u := range g.Neighbors(v) {
			if p := labels[u]; p != own && seen[p] != stamp {
				seen[p] = stamp
				it.ghostSend[own][p] = append(it.ghostSend[own][p], int32(v))
			}
		}
	}
	return it, nil
}

// sendElemsFor runs the phase-2 global search for one rank: its owned
// surface elements are filtered through the (already parsed) tree and
// binned by candidate destination partition.
func (it *iteration) sendElemsFor(rank int, filter contact.Filter, mark []bool) [][]int32 {
	send := make([][]int32, it.k)
	for _, e := range it.elemsOf[rank] {
		filter.PartsFor(it.boxes[e], mark)
		for to := 0; to < it.k; to++ {
			if mark[to] {
				if to != rank {
					send[to] = append(send[to], e)
				}
				mark[to] = false
			}
		}
	}
	return send
}

// localSearch runs the narrow phase at one rank: every pair of
// elements among own ∪ received whose inflated boxes intersect is
// tested exactly; a pair is reported when its exact distance is within
// tol, it does not share mesh nodes, and the reporting rule selects
// this rank. The primary rule — the rank owning the pair's canonical A
// side (the smaller element id) reports — makes the union over ranks
// duplicate-free, but it is only complete when the canonical owner saw
// both elements; the tree filter may ship A to owner(B) without
// shipping B to owner(A). The fallback covers that asymmetry: the rank
// owning B also reports when A was received here. When both owners saw
// both elements the pair is reported twice and the collector's dedup
// folds the copies.
func localSearch(m *mesh.Mesh, boxes []geom.AABB, owners []int32, own, received []int32, rank int, tol float64) []contact.Pair {
	all := make([]int32, 0, len(own)+len(received))
	all = append(all, own...)
	all = append(all, received...)
	// The received-set: which elements arrived at this rank in phase 2.
	// The fallback rule needs it to know that owner(B) can stand in for
	// an owner(A) that never saw B.
	recv := make([]bool, len(m.Surface))
	for _, e := range received {
		recv[e] = true
	}
	sub := make([]geom.AABB, len(all))
	for i, e := range all {
		sub[i] = boxes[e]
	}
	bvh := contact.NewBVH(sub, m.Dim)

	facet := func(i int32) []geom.Point {
		s := m.Surface[i]
		pts := make([]geom.Point, len(s.Nodes))
		for j, n := range s.Nodes {
			pts[j] = m.Coords[n]
		}
		return pts
	}
	shareNode := func(a, b int32) bool {
		for _, na := range m.Surface[a].Nodes {
			for _, nb := range m.Surface[b].Nodes {
				if na == nb {
					return true
				}
			}
		}
		return false
	}

	var out []contact.Pair
	for i, ea := range all {
		fa := facet(ea)
		bvh.Query(sub, sub[i], func(j int32) {
			eb := all[j]
			if eb <= ea || shareNode(ea, eb) {
				return
			}
			// Reporting rule: the rank owning the smaller element id
			// reports; the rank owning the larger id also reports when
			// the smaller one was shipped here (the canonical owner may
			// never have seen B — the collector dedups the overlap).
			ownsA := int(owners[ea]) == rank
			ownsB := int(owners[eb]) == rank
			if !ownsA && !(ownsB && recv[ea]) {
				return
			}
			da := geom.FacetDist(fa, facet(eb))
			if da <= tol {
				out = append(out, contact.Pair{A: ea, B: eb, Dist: da})
			}
		})
	}
	return out
}
