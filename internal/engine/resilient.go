package engine

// This file is the fault-tolerance layer of the engine: the workers'
// transport-based all-to-all exchange with acknowledgements, bounded
// backoff resend and receiver-side dedup; per-phase deadlines; and the
// serial re-execution path used when a rank is unrecoverable.
//
// Resilience invariant: WorkerStats count logical batches (each
// logical (from, to, phase) batch once), and receivers deduplicate by
// (from, phase), so a recovering schedule — whether it recovers by
// retransmission or by serial degrade — yields Pairs and Stats
// identical to a fault-free run.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/contact"
	"repro/internal/dtree"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Engine phases carried in message headers.
const (
	phaseGhost = 1 // phase 1: ghost-node exchange
	phaseElems = 2 // phase 2: element shipping
	phaseLocal = 3 // phase 3: local search (no exchange; fault hook only)
	numPhases  = 4
)

// Options configures the resilience layer of one engine iteration.
// The zero value reproduces the seed engine's semantics: a direct
// in-memory transport, no fault injection, and no deadlines (a hung
// rank hangs the iteration, exactly like the raw-channel engine).
type Options struct {
	// Transport carries the rank-to-rank traffic; nil selects an
	// in-memory Direct transport sized for the iteration.
	Transport transport.Transport
	// Fault, when non-nil and active, wraps the transport in a
	// deterministic fault injector and enables the plan's rank-level
	// panic/stall/corrupt-broadcast injections.
	Fault *fault.Plan
	// PhaseTimeout bounds each exchange phase per rank; 0 means no
	// deadline unless a fault plan is active (then 2s, so injected
	// failures are detected instead of deadlocking).
	PhaseTimeout time.Duration
	// MaxRetries bounds the resend attempts per phase (default 4).
	MaxRetries int
	// RetryBackoff is the first resend delay, doubling per attempt
	// (default 5ms).
	RetryBackoff time.Duration
	// NoDegrade disables the serial-recovery path: a rank failure
	// surfaces as an error from Run instead.
	NoDegrade bool
	// Obs receives the phases and the resilience counters
	// (transport_retries, transport_*_injected, engine_degraded_iters).
	// When the ctx passed to Run carries a trace span, each rank gets
	// a child span on its own "rank<r>" track, each engine phase a
	// nested span, each exchange a "transport_exchange" span with
	// "retry" instant events, and injected faults appear as events on
	// the exchange timeline.
	Obs *obs.Collector
}

func (o Options) withDefaults() Options {
	if o.PhaseTimeout == 0 && o.Fault.Active() {
		o.PhaseTimeout = 2 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	return o
}

// A RankError is a per-rank failure detected during the concurrent
// iteration: a phase deadline expired, the rank's broadcast copy was
// undecodable, or the rank panicked.
type RankError struct {
	Rank  int
	Phase int
	Err   error
}

func (e *RankError) Error() string {
	return fmt.Sprintf("engine: rank %d failed in phase %d: %v", e.Rank, e.Phase, e.Err)
}

func (e *RankError) Unwrap() error { return e.Err }

// worker is one rank's view of the exchange: its transport endpoint,
// the per-phase dedup state, and the stash of messages that arrived
// ahead of the phase that consumes them.
type worker struct {
	rank, k int
	tp      transport.Transport
	opts    *Options
	// seen[phase][from] records that from's phase batch was received
	// (receiver-side dedup: retransmits are acked but never
	// re-counted).
	seen [numPhases][]bool
	// pending[phase] stashes messages that arrived while the worker
	// was still in an earlier phase.
	pending [numPhases][]transport.Message
	// retries counts resend rounds this worker initiated.
	retries int64
}

func newWorker(rank, k int, tp transport.Transport, opts *Options) *worker {
	w := &worker{rank: rank, k: k, tp: tp, opts: opts}
	for p := 1; p < numPhases; p++ {
		w.seen[p] = make([]bool, k)
	}
	return w
}

// sendAck acknowledges a data message (echoing its attempt so the
// fault layer rolls an independent coin per retransmit round).
func (w *worker) sendAck(ctx context.Context, data transport.Message) error {
	return w.tp.Send(ctx, transport.Message{
		From: w.rank, To: data.From, Phase: data.Phase,
		Kind: transport.Ack, Attempt: data.Attempt,
	})
}

// recvPhase returns the next message of the wanted phase, serving the
// stash first. Messages for other phases are stashed (unseen data) or
// answered in place: a duplicate of an already-consumed batch is
// re-acked — its original ack must have been lost — and stale acks are
// dropped.
func (w *worker) recvPhase(ctx context.Context, phase int) (transport.Message, error) {
	if q := w.pending[phase]; len(q) > 0 {
		msg := q[0]
		w.pending[phase] = q[1:]
		return msg, nil
	}
	for {
		msg, err := w.tp.Recv(ctx, w.rank)
		if err != nil {
			return transport.Message{}, err
		}
		if msg.Phase == phase {
			return msg, nil
		}
		if msg.Phase < 1 || msg.Phase >= numPhases || msg.From < 0 || msg.From >= w.k {
			continue // malformed; ignore
		}
		if msg.Kind == transport.Data {
			if w.seen[msg.Phase][msg.From] {
				if err := w.sendAck(ctx, msg); err != nil {
					return transport.Message{}, err
				}
				continue
			}
			w.pending[msg.Phase] = append(w.pending[msg.Phase], msg)
		}
		// Acks are only solicited by our own sends, which happen in
		// phase order — an ack for another phase is stale; drop it.
	}
}

// exchange performs one all-to-all personalized exchange: batches[to]
// goes to each peer, and each peer's batch comes back. Delivery is
// reliable up to the retry budget: unacknowledged batches are resent
// with doubling backoff, duplicates are acked-and-ignored, and a peer
// that produces neither data nor ack by the phase deadline turns into
// a *RankError. The returned slice is indexed by sender rank.
func (w *worker) exchange(ctx context.Context, phase int, batches [][]int32) ([][]int32, error) {
	k := w.k
	got := make([][]int32, k)
	if k == 1 {
		return got, nil
	}
	ctx, xs := obs.StartSpan(ctx, "transport_exchange", obs.Int("phase", int64(phase)))
	defer xs.End()
	for to := 0; to < k; to++ {
		if to != w.rank {
			w.opts.Obs.Hist("transport_msg_items", int64(len(batches[to])))
		}
	}
	gotFrom := w.seen[phase]
	gotFrom[w.rank] = true
	acked := make([]bool, k)
	acked[w.rank] = true
	nGot, nAck := 1, 1

	send := func(attempt int) error {
		for to := 0; to < k; to++ {
			if to == w.rank || acked[to] {
				continue
			}
			err := w.tp.Send(ctx, transport.Message{
				From: w.rank, To: to, Phase: phase,
				Kind: transport.Data, Attempt: attempt, Payload: batches[to],
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := send(0); err != nil {
		return nil, err
	}

	hasDeadline := w.opts.PhaseTimeout > 0
	var phaseDeadline time.Time
	if hasDeadline {
		phaseDeadline = time.Now().Add(w.opts.PhaseTimeout)
	}
	attempt := 0
	backoff := w.opts.RetryBackoff

	for nGot < k || nAck < k {
		rctx := ctx
		var rcancel context.CancelFunc
		if hasDeadline {
			next := phaseDeadline
			if attempt < w.opts.MaxRetries {
				if t := time.Now().Add(backoff); t.Before(next) {
					next = t
				}
			}
			rctx, rcancel = context.WithDeadline(ctx, next)
		}
		msg, err := w.recvPhase(rctx, phase)
		if rcancel != nil {
			rcancel()
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err() // iteration abandoned
			}
			if !hasDeadline {
				return nil, err
			}
			if time.Now().Before(phaseDeadline) && attempt < w.opts.MaxRetries {
				// Retry round: resend every unacknowledged batch.
				attempt++
				w.retries++
				xs.Event("retry",
					obs.Int("attempt", int64(attempt)),
					obs.Int("unacked", int64(k-nAck)))
				backoff *= 2
				if err := send(attempt); err != nil {
					return nil, err
				}
				continue
			}
			return nil, &RankError{Rank: w.rank, Phase: phase, Err: fmt.Errorf(
				"exchange timed out after %d retries: %d/%d batches received, %d/%d acked",
				attempt, nGot-1, k-1, nAck-1, k-1)}
		}
		switch msg.Kind {
		case transport.Ack:
			if msg.From >= 0 && msg.From < k && !acked[msg.From] {
				acked[msg.From] = true
				nAck++
			}
		case transport.Data:
			if msg.From < 0 || msg.From >= k {
				continue
			}
			// Always ack — the sender retries until it hears us, and
			// the previous ack may have been dropped.
			if err := w.sendAck(ctx, msg); err != nil {
				return nil, err
			}
			if !gotFrom[msg.From] {
				gotFrom[msg.From] = true
				got[msg.From] = msg.Payload
				nGot++
			}
		}
	}
	return got, nil
}

// drain keeps answering late retransmits with acks after this worker
// has finished its phases, so a peer whose ack was lost can still
// complete by resending instead of forcing a serial degrade. It runs
// until the iteration-wide drain context is cancelled (all workers
// done or the iteration abandoned).
func (w *worker) drain(ctx context.Context) {
	for {
		msg, err := w.tp.Recv(ctx, w.rank)
		if err != nil {
			return
		}
		if msg.Kind == transport.Data {
			_ = w.sendAck(ctx, msg)
		}
	}
}

// runWorker executes one rank's three phases over the transport.
// Panics (including injected ones) are recovered into per-rank errors
// so a crashing rank degrades the iteration instead of the process.
func (it *iteration) runWorker(ctx context.Context, w *worker, opts Options, ws *WorkerStats) (pairs []contact.Pair, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = &RankError{Rank: w.rank, Phase: 0, Err: fmt.Errorf("panic: %w", e)}
			} else {
				err = &RankError{Rank: w.rank, Phase: 0, Err: fmt.Errorf("panic: %v", r)}
			}
		}
	}()
	rank := w.rank
	ws.OwnedNodes = len(it.nodesOf[rank])
	ws.OwnedElems = len(it.elemsOf[rank])

	// --- Phase 1: ghost exchange (all-to-all personalized). ---
	opts.Fault.MaybePanic(rank, phaseGhost)
	opts.Fault.MaybeStall(ctx, rank, phaseGhost)
	gctx, gs := obs.StartSpan(ctx, "ghost_exchange")
	ghosts, err := w.exchange(gctx, phaseGhost, it.ghostSend[rank])
	gs.End()
	if err != nil {
		return nil, err
	}
	for to, batch := range it.ghostSend[rank] {
		if to != rank {
			ws.GhostsSent += int64(len(batch))
		}
	}
	for _, b := range ghosts {
		ws.GhostsRecv += int64(len(b))
	}

	// --- Phase 2: global search. ---
	opts.Fault.MaybePanic(rank, phaseElems)
	opts.Fault.MaybeStall(ctx, rank, phaseElems)
	received, err := it.globalSearch(ctx, w, opts, ws)
	if err != nil {
		return nil, err
	}

	// --- Phase 3: local search over own + received elements. ---
	opts.Fault.MaybePanic(rank, phaseLocal)
	ph := opts.Obs.Phase(obs.SpanFromContext(ctx), "local_search")
	pprof.Do(ctx, pprof.Labels("phase", "local_search"), func(context.Context) {
		pairs = localSearch(it.m, it.boxes, it.owners, it.elemsOf[rank], received, rank, it.tol)
	})
	ph.End()
	ws.PairsDetected = len(pairs)
	return pairs, nil
}

// globalSearch is one rank's engine phase 2: parse the broadcast tree,
// filter the rank's own surface elements through it, and exchange the
// filtered elements. It returns the elements received from peers.
func (it *iteration) globalSearch(ctx context.Context, w *worker, opts Options, ws *WorkerStats) ([]int32, error) {
	rank := w.rank
	ph := opts.Obs.Phase(obs.SpanFromContext(ctx), "global_search")
	defer ph.End()
	ctx = obs.ContextWithSpan(ctx, ph.Span())
	raw := opts.Fault.CorruptTreeBytes(rank, it.treeBuf)
	tree, err := dtree.ReadTree(bytes.NewReader(raw))
	if err != nil {
		// The broadcast this rank received is undecodable. Surface a
		// per-rank error; the serial-degrade path re-reads the
		// pristine bytes.
		return nil, &RankError{Rank: rank, Phase: phaseElems, Err: err}
	}
	filter := &contact.TreeFilter{
		Tree:       tree,
		Labels:     it.d.ContactLabels,
		TightBoxes: tree.PointBoxes(it.d.ContactPoints),
	}
	var sendElems [][]int32
	pprof.Do(ctx, pprof.Labels("phase", "global_search"), func(context.Context) {
		sendElems = it.sendElemsFor(rank, filter, make([]bool, it.k))
	})
	gotElems, err := w.exchange(ctx, phaseElems, sendElems)
	if err != nil {
		return nil, err
	}
	var received []int32
	for from := 0; from < it.k; from++ {
		if from == rank {
			continue
		}
		ws.ElemsSent += int64(len(sendElems[from]))
		ws.ElemsRecv += int64(len(gotElems[from]))
		received = append(received, gotElems[from]...)
	}
	return received, nil
}

// runParallel attempts the concurrent iteration over the transport.
// On failure it returns the ranks that failed plus the root-cause
// error (per-rank errors preferred over the cascade of context
// cancellations they trigger).
func (it *iteration) runParallel(ctx context.Context, opts Options) (*Stats, []int, error) {
	k := it.k
	tp := opts.Transport
	if tp == nil {
		// Capacity covers the full two-phase all-to-all with the whole
		// retry budget (data + acks + injected duplicates), so sends
		// never block and workers cannot deadlock on a full inbox.
		tp = transport.NewDirect(k, 8*(k+1)*(opts.MaxRetries+2))
	}
	if opts.Fault.Active() {
		ft := transport.NewFaulty(tp, opts.Fault, opts.Obs)
		defer ft.Close()
		tp = ft
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	drainCtx, drainCancel := context.WithCancel(ctx)
	defer drainCancel()

	stats := &Stats{K: k, TreeBytes: int64(len(it.treeBuf)), PerWorker: make([]WorkerStats, k)}
	pairs := make([][]contact.Pair, k)
	errs := make([]error, k)
	var retries int64
	var retriesMu sync.Mutex

	parent := obs.SpanFromContext(ctx)
	var mainWG, allWG sync.WaitGroup
	mainWG.Add(k)
	allWG.Add(k)
	for p := 0; p < k; p++ {
		go func(rank int) {
			defer allWG.Done()
			pprof.Do(ctx, pprof.Labels("rank", strconv.Itoa(rank)), func(ctx context.Context) {
				rankSpan := parent.Child("rank",
					obs.Int("rank", int64(rank)),
					obs.Track(fmt.Sprintf("rank%d", rank)))
				ctx = obs.ContextWithSpan(ctx, rankSpan)
				w := newWorker(rank, k, tp, &opts)
				prs, err := it.runWorker(ctx, w, opts, &stats.PerWorker[rank])
				rankSpan.End()
				pairs[rank] = prs
				errs[rank] = err
				retriesMu.Lock()
				retries += w.retries
				retriesMu.Unlock()
				if err != nil {
					cancel() // abandon the iteration; peers unblock via ctx
				}
				mainWG.Done()
				// Keep acking late retransmits until everyone is done.
				w.drain(drainCtx)
			})
		}(p)
	}
	mainWG.Wait()
	drainCancel()
	allWG.Wait()
	opts.Obs.Add("transport_retries", retries)

	// Root cause: per-rank errors beat the context-cancellation
	// cascade they caused.
	var failed []int
	var firstErr, firstRankErr error
	for rank, e := range errs {
		if e == nil {
			continue
		}
		if firstErr == nil {
			firstErr = e
		}
		if !errors.Is(e, context.Canceled) {
			failed = append(failed, rank)
			if firstRankErr == nil {
				firstRankErr = e
			}
		}
	}
	if firstRankErr != nil {
		return nil, failed, firstRankErr
	}
	if firstErr != nil {
		return nil, failed, firstErr
	}
	stats.Pairs = contact.Collect(pairs)
	return stats, nil, nil
}

// runSerial re-executes the iteration without concurrency or
// transport, from the pristine inputs captured in it: the recovery
// path when a rank is unrecoverable. It produces exactly the Stats a
// fault-free concurrent run would (all counts are logical), which is
// what makes graceful degradation invisible in the results. Its phases
// nest under the span ctx carries.
func (it *iteration) runSerial(ctx context.Context, opts Options) (*Stats, error) {
	parent := obs.SpanFromContext(ctx)
	k := it.k
	stats := &Stats{K: k, TreeBytes: int64(len(it.treeBuf)), PerWorker: make([]WorkerStats, k)}

	tree, err := dtree.ReadTree(bytes.NewReader(it.treeBuf))
	if err != nil {
		return nil, err
	}
	filter := &contact.TreeFilter{
		Tree:       tree,
		Labels:     it.d.ContactLabels,
		TightBoxes: tree.PointBoxes(it.d.ContactPoints),
	}

	for rank := 0; rank < k; rank++ {
		ws := &stats.PerWorker[rank]
		ws.OwnedNodes = len(it.nodesOf[rank])
		ws.OwnedElems = len(it.elemsOf[rank])
	}

	// Phase 1: the ghost exchange is fully determined by the send
	// lists.
	for from := 0; from < k; from++ {
		for to := 0; to < k; to++ {
			if to == from {
				continue
			}
			n := int64(len(it.ghostSend[from][to]))
			stats.PerWorker[from].GhostsSent += n
			stats.PerWorker[to].GhostsRecv += n
		}
	}

	// Phase 2: filter and "ship" each rank's elements in rank order.
	received := make([][]int32, k)
	mark := make([]bool, k)
	for rank := 0; rank < k; rank++ {
		ph := opts.Obs.Phase(parent, "global_search", obs.Int("rank", int64(rank)))
		send := it.sendElemsFor(rank, filter, mark)
		for to := 0; to < k; to++ {
			if to == rank {
				continue
			}
			n := int64(len(send[to]))
			stats.PerWorker[rank].ElemsSent += n
			stats.PerWorker[to].ElemsRecv += n
			received[to] = append(received[to], send[to]...)
		}
		ph.End()
	}

	// Phase 3: local search per rank.
	pairs := make([][]contact.Pair, k)
	for rank := 0; rank < k; rank++ {
		ph := opts.Obs.Phase(parent, "local_search", obs.Int("rank", int64(rank)))
		prs := localSearch(it.m, it.boxes, it.owners, it.elemsOf[rank], received[rank], rank, it.tol)
		ph.End()
		stats.PerWorker[rank].PairsDetected = len(prs)
		pairs[rank] = prs
	}
	stats.Pairs = contact.Collect(pairs)
	return stats, nil
}
