package server

// Unit tests for the job engine: lifecycle, backpressure, caching,
// idempotency, deadlines, panic isolation, cancellation, and drain
// semantics. The HTTP surface is covered in http_test.go and the
// chaos-under-load proofs in chaos_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// gridSpec builds a unit-weight nx x ny grid graph in wire form.
func gridSpec(nx, ny int) *GraphSpec {
	nv := nx * ny
	xadj := make([]int32, 1, nv+1)
	var adj []int32
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				ux, uy := x+d[0], y+d[1]
				if ux >= 0 && ux < nx && uy >= 0 && uy < ny {
					adj = append(adj, int32(uy*nx+ux))
				}
			}
			xadj = append(xadj, int32(len(adj)))
		}
	}
	return &GraphSpec{NCon: 1, Xadj: xadj, Adj: adj}
}

// lineSpec1D is a two-vertex graph with 1-D coordinates, which the
// geometric backends cannot partition.
func lineSpec1D() *GraphSpec {
	return &GraphSpec{NCon: 1, Xadj: []int32{0, 1, 2}, Adj: []int32{1, 0}, Dim: 1, Coords: []float64{0, 1}}
}

// graphJob is a small multilevel job over a 24x24 grid; distinct
// seeds give distinct spec hashes.
func graphJob(seed int64) JobSpec {
	return JobSpec{Kind: KindGraph, Graph: gridSpec(24, 24), K: 4, Seed: seed}
}

// newTestServer starts a server and registers a drain as cleanup, so
// a test that forgets to stop it cannot leak workers into the next.
func newTestServer(t *testing.T, opt Options) *Server {
	t.Helper()
	s := New(opt)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return s
}

// wait blocks until the job is terminal.
func wait(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	view, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return view
}

func TestServerGraphJobLifecycle(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	view, err := s.Submit(graphJob(1), "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if view.Status != StatusQueued {
		t.Fatalf("fresh job status = %s, want queued", view.Status)
	}
	view = wait(t, s, view.ID)
	if view.Status != StatusDone {
		t.Fatalf("job finished %s (%s), want done", view.Status, view.Error)
	}
	var res GraphResult
	mustUnmarshal(t, view.Result, &res)
	if len(res.Labels) != 24*24 {
		t.Fatalf("%d labels for %d vertices", len(res.Labels), 24*24)
	}
	for v, l := range res.Labels {
		if l < 0 || l >= 4 {
			t.Fatalf("vertex %d has label %d outside [0,4)", v, l)
		}
	}
	if res.Cut <= 0 {
		t.Fatalf("cut = %d, want > 0 for a connected grid split 4 ways", res.Cut)
	}
	if len(res.Imbalances) != 1 {
		t.Fatalf("%d imbalance entries for 1 constraint", len(res.Imbalances))
	}
	if view.Obs == nil {
		t.Fatalf("finished job carries no obs report")
	}
	if view.WallNS <= 0 {
		t.Fatalf("finished job has wall %d", view.WallNS)
	}
	a := s.Accounting()
	if a.Submitted != 1 || a.Accepted != 1 || a.Completed != 1 {
		t.Fatalf("ledger after one job: %+v", a)
	}
}

func TestServerResultCacheHit(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	first, err := s.Submit(graphJob(7), "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	first = wait(t, s, first.ID)

	second, err := s.Submit(graphJob(7), "")
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if second.ID == first.ID {
		t.Fatalf("cache hit reused the job id")
	}
	if second.Status != StatusDone || !second.Cached {
		t.Fatalf("resubmission of a finished spec: status %s cached %t, want instant cached done", second.Status, second.Cached)
	}
	if string(second.Result) != string(first.Result) {
		t.Fatalf("cached result differs from computed result")
	}
	a := s.Accounting()
	if a.CacheHits != 1 || a.Completed != 2 {
		t.Fatalf("ledger after cache hit: %+v", a)
	}

	// A different spec misses.
	third, err := s.Submit(graphJob(8), "")
	if err != nil {
		t.Fatalf("submit third: %v", err)
	}
	if third.Status != StatusQueued {
		t.Fatalf("distinct spec should queue, got %s", third.Status)
	}
	wait(t, s, third.ID)
}

func TestServerIdempotencyKeyDedups(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	first, err := s.Submit(graphJob(3), "retry-abc")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	second, err := s.Submit(graphJob(3), "retry-abc")
	if err != nil {
		t.Fatalf("retry submit: %v", err)
	}
	if second.ID != first.ID {
		t.Fatalf("idempotent retry created a new job: %s then %s", first.ID, second.ID)
	}
	a := s.Accounting()
	if a.Deduped != 1 || a.Accepted != 1 {
		t.Fatalf("ledger after dedup: %+v", a)
	}
	wait(t, s, first.ID)
}

func TestServerValidationRejects(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	bad := []JobSpec{
		{Kind: "nope"},
		{Kind: KindGraph},                        // no graph
		{Kind: KindGraph, Graph: gridSpec(4, 4)}, // k = 0
		{Kind: KindGraph, Graph: gridSpec(4, 4), K: maxK + 1},
		{Kind: KindGraph, Graph: gridSpec(4, 4), K: 2, Backend: "no-such"},
		{Kind: KindGraph, Graph: gridSpec(4, 4), K: 2, Backend: "rcb"}, // needs coords
		{Kind: KindGraph, Graph: lineSpec1D(), K: 2, Backend: "sfc"},   // needs dim 2 or 3
		{Kind: KindGraph, Graph: lineSpec1D(), K: 2, Backend: "rcb"},
		{Kind: KindGraph, Graph: lineSpec1D(), K: 2, Backend: "bkmeans"},
		{Kind: KindGraph, Graph: &GraphSpec{NCon: 1, Xadj: []int32{0, 2}, Adj: []int32{1}}, K: 2},
		{Kind: KindSweep}, // no sweep
		{Kind: KindSweep, Sweep: &SweepSpec{Snapshots: 1}}, // no ks
		{Kind: KindSweep, Sweep: &SweepSpec{Snapshots: 0, Ks: []int{2}}},
		{Kind: KindSweep, Sweep: &SweepSpec{Snapshots: 1, Ks: []int{0}}},
		{Kind: KindSweep, Sweep: &SweepSpec{Snapshots: 1, Ks: []int{maxK + 1}}},
		{Kind: KindSweep, Sweep: &SweepSpec{Snapshots: 1, Ks: []int{2}}, Graph: gridSpec(2, 2)},
		{Kind: KindSweep, Sweep: &SweepSpec{Snapshots: 1, Steps: -1, Ks: []int{2}}},
		{Kind: KindSweep, Sweep: &SweepSpec{Snapshots: 8, Steps: 7, Ks: []int{2}}}, // fewer steps than snapshots
		{Kind: KindSweep, Sweep: &SweepSpec{Snapshots: 1, Steps: maxSteps + 1, Ks: []int{2}}},
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec, ""); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	a := s.Accounting()
	if a.RejectedInvalid != int64(len(bad)) || a.Accepted != 0 {
		t.Fatalf("ledger after invalid submissions: %+v", a)
	}
	// Multilevel ignores coordinates, so their dimension is no reason
	// to refuse its job.
	if err := (&JobSpec{Kind: KindGraph, Graph: lineSpec1D(), K: 2}).validate(1 << 12); err != nil {
		t.Fatalf("multilevel job with 1-D coordinates refused: %v", err)
	}
}

// TestServerKeepsOneScene: sweeps over two scenes leave only the most
// recent one cached, and a resubmitted sweep whose scene was evicted
// regenerates it with byte-identical results.
func TestServerKeepsOneScene(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, CacheEntries: -1})
	a := JobSpec{Kind: KindSweep, Sweep: &SweepSpec{Snapshots: 1, Ks: []int{2}, Seed: 3}}
	b := JobSpec{Kind: KindSweep, Sweep: &SweepSpec{Snapshots: 2, Ks: []int{2}, Seed: 3}}
	var first JobView
	for i, spec := range []JobSpec{a, b, a} {
		view := wait(t, s, mustSubmit(t, s, spec).ID)
		if view.Status != StatusDone {
			t.Fatalf("sweep %d: %s (%s)", i, view.Status, view.Error)
		}
		s.sceneMu.Lock()
		key := s.sceneKey
		s.sceneMu.Unlock()
		if want := spec.Sweep.withDefaults().sceneKey(); key != want {
			t.Fatalf("after sweep %d the cached scene is %q, want %q", i, key, want)
		}
		switch i {
		case 0:
			first = view
		case 2:
			if !bytes.Equal(view.Result, first.Result) {
				t.Fatalf("regenerated scene changed the result:\n%.200s\nvs\n%.200s", view.Result, first.Result)
			}
		}
	}
}

func TestServerQueueFullSheds(t *testing.T) {
	// One worker, stalled on its first job; queue depth 1. The second
	// submission queues, the third must shed.
	plan := &fault.Plan{StallRank: map[int]fault.Stall{0: {Phase: jobPhase, For: time.Minute}}}
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1, Fault: plan})

	stalled, err := s.Submit(graphJob(1), "")
	if err != nil {
		t.Fatalf("submit stalled job: %v", err)
	}
	waitForStatus(t, s, stalled.ID, StatusRunning)

	queued, err := s.Submit(graphJob(2), "")
	if err != nil {
		t.Fatalf("submit queued job: %v", err)
	}
	if _, err := s.Submit(graphJob(3), ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	a := s.Accounting()
	if a.RejectedFull != 1 || a.Accepted != 2 {
		t.Fatalf("ledger after shed: %+v", a)
	}

	// Cancel unblocks the stall (MaybeStall honors the context), the
	// worker moves on, and the queued job completes: shedding is
	// load-dependent, not sticky.
	if _, err := s.Cancel(stalled.ID); err != nil {
		t.Fatalf("cancel stalled: %v", err)
	}
	if view := wait(t, s, queued.ID); view.Status != StatusDone {
		t.Fatalf("queued job after unblock: %s (%s)", view.Status, view.Error)
	}
	if _, err := s.Submit(graphJob(3), ""); err != nil {
		t.Fatalf("submit after unblock: %v", err)
	}
}

func TestServerPanicIsolation(t *testing.T) {
	// Job seq 0 panics inside execution; the daemon must survive and
	// keep serving.
	plan := &fault.Plan{PanicRank: map[int]int{0: jobPhase}}
	s := newTestServer(t, Options{Workers: 1, Fault: plan})

	doomed, err := s.Submit(graphJob(1), "")
	if err != nil {
		t.Fatalf("submit doomed: %v", err)
	}
	view := wait(t, s, doomed.ID)
	if view.Status != StatusFailed || !strings.Contains(view.Error, "panicked") {
		t.Fatalf("doomed job: status %s error %q, want failed with panic message", view.Status, view.Error)
	}

	after, err := s.Submit(graphJob(2), "")
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	if view := wait(t, s, after.ID); view.Status != StatusDone {
		t.Fatalf("job after a panicking job: %s (%s), want done", view.Status, view.Error)
	}
	a := s.Accounting()
	if a.Failed != 1 || a.Completed != 1 {
		t.Fatalf("ledger after panic: %+v", a)
	}
}

func TestServerDeadlineFailsJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	spec := JobSpec{Kind: KindGraph, Graph: gridSpec(300, 300), K: 32, TimeoutMS: 30}
	view, err := s.Submit(spec, "")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	t0 := time.Now()
	view = wait(t, s, view.ID)
	if view.Status != StatusFailed || !strings.Contains(view.Error, "deadline") {
		t.Fatalf("deadline job: status %s error %q, want failed with deadline", view.Status, view.Error)
	}
	// The deadline must actually stop the recursion, not just mark the
	// job: the 300x300 k=32 partition takes far longer than this bound
	// when allowed to finish.
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("deadline-expired job held its worker for %v", elapsed)
	}
}

func TestServerCancelQueuedAndRunning(t *testing.T) {
	plan := &fault.Plan{StallRank: map[int]fault.Stall{0: {Phase: jobPhase, For: time.Minute}}}
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Fault: plan})

	running, err := s.Submit(graphJob(1), "")
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	waitForStatus(t, s, running.ID, StatusRunning)
	queued, err := s.Submit(graphJob(2), "")
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	// Queued: cancelled on the spot, never runs.
	view, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if view.Status != StatusCanceled {
		t.Fatalf("cancelled queued job is %s", view.Status)
	}

	// Running: transitions when the payload notices the dead context.
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	view = wait(t, s, running.ID)
	if view.Status != StatusCanceled {
		t.Fatalf("cancelled running job finished %s (%s)", view.Status, view.Error)
	}

	// Cancelling a terminal job is a no-op returning the final view.
	again, err := s.Cancel(running.ID)
	if err != nil || again.Status != StatusCanceled {
		t.Fatalf("re-cancel: view %+v err %v", again, err)
	}
	if _, err := s.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: err = %v, want ErrNotFound", err)
	}
	a := s.Accounting()
	if a.Canceled != 2 {
		t.Fatalf("ledger after cancels: %+v", a)
	}
}

func TestServerDrainSemantics(t *testing.T) {
	plan := &fault.Plan{StallRank: map[int]fault.Stall{0: {Phase: jobPhase, For: time.Minute}}}
	s := New(Options{Workers: 1, QueueDepth: 4, Fault: plan})

	running, err := s.Submit(graphJob(1), "")
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	waitForStatus(t, s, running.ID, StatusRunning)
	queued, err := s.Submit(graphJob(2), "")
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if view, _ := s.Job(running.ID); view.Status != StatusDrained {
		t.Fatalf("in-flight job after drain: %s, want drained", view.Status)
	}
	if view, _ := s.Job(queued.ID); view.Status != StatusDrainedQueued {
		t.Fatalf("queued job after drain: %s, want drained_queued", view.Status)
	}
	if _, err := s.Submit(graphJob(3), ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: err = %v, want ErrDraining", err)
	}
	if !s.Draining() {
		t.Fatalf("Draining() false after drain")
	}
	// Idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	a := s.Accounting()
	if a.Drained != 1 || a.DrainedQueued != 1 || a.RejectedDraining != 1 {
		t.Fatalf("ledger after drain: %+v", a)
	}
}

// waitForStatus polls until the job reaches the wanted status (the
// transition into "running" has no channel to wait on).
func waitForStatus(t *testing.T, s *Server, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		view, err := s.Job(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if view.Status == want {
			return
		}
		if view.Status.terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, view.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
}
