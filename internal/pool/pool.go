// Package pool provides the small bounded-concurrency substrate the
// evaluation pipeline runs on: fan a fixed set of independent jobs out
// over at most W workers, capture panics as errors instead of killing
// the process, and return results in submission order so concurrent
// execution is observationally identical to a serial loop.
//
// Three shapes of concurrency live here. Map and Run fan out a set of
// jobs known up front (the harness k-sweep, per-snapshot measurement
// legs). Ranges is the data-parallel loop: one index range split into
// contiguous chunks, with a worker panic re-raised on the caller, so
// it fails exactly as the serial loop would. Group is the fork–join
// counterpart for recursive fan-out — tasks that discover and submit
// further tasks, like the children of a recursive-bisection node —
// with cancellation: the first failing task cancels the group, and
// queued-but-unstarted tasks are dropped instead of leaking work.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Workers resolves a worker-count request: n > 0 is used as given,
// anything else selects runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// A PanicError wraps a panic recovered from a pool job.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // stack trace captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: job panicked: %v\n%s", e.Value, e.Stack)
}

// Map runs fn(0..n-1) on at most Workers(workers) goroutines and
// returns the results in index order: out[i] = fn(i). All n jobs run
// even after a failure (jobs are independent by contract); the first
// error in index order is returned. A panicking job is reported as a
// *PanicError rather than crashing the process.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	run(workers, n, func(i int) {
		out[i], errs[i] = safely(fn, i)
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Ranges splits [0, n) into w = min(Workers(workers), n) contiguous
// ranges, range i being [n*i/w, n*(i+1)/w), runs fn on every range
// concurrently and returns the results in range order. One range runs
// inline on the caller's goroutine. Once every range has finished, the
// first panic in range order is re-raised on the caller's goroutine as
// a *PanicError carrying the worker's stack, whatever the range count,
// so the nearest recover sees a parallel failure exactly as it sees a
// serial one.
func Ranges[T any](workers, n int, fn func(lo, hi int) T) []T {
	w := min(Workers(workers), n)
	out, err := Map(w, w, func(i int) (T, error) {
		return fn(n*i/w, n*(i+1)/w), nil
	})
	if err != nil {
		panic(err)
	}
	return out
}

// Run executes the given functions concurrently on at most
// Workers(workers) goroutines and waits for all of them. The first
// error in argument order (panics included, as *PanicError) is
// returned.
func Run(workers int, fns ...func() error) error {
	_, err := Map(workers, len(fns), func(i int) (struct{}, error) {
		return struct{}{}, fns[i]()
	})
	return err
}

// Group is a cancellable fork–join task group on a fixed set of
// workers. Tasks are func(ctx) error and may Submit further tasks
// (recursive fan-out); tasks must never block on each other, which is
// what makes a fixed worker count deadlock-free. The first task error
// or panic cancels the group's context, and every task still sitting
// in the queue is dropped without running — a failed branch cancels
// its siblings instead of leaking their work. Wait blocks until no
// task is queued or running and returns the first failure.
//
// Output determinism is the caller's contract: tasks write to disjoint
// state (e.g. disjoint label ranges keyed by submission position), so
// scheduling order cannot be observed in the results.
type Group struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func(ctx context.Context) error
	pending int // queued + running tasks
	closed  bool
	err     error

	tasks   int64 // tasks executed
	dropped int64 // tasks dropped by cancellation
	busy    int   // workers currently running a task
	maxBusy int   // peak of busy (worker occupancy)
}

// GroupStats is a snapshot of a group's scheduling counters, for
// observability: how many tasks ran, how many were dropped by
// cancellation, and the peak number of simultaneously busy workers.
type GroupStats struct {
	Tasks      int64
	Dropped    int64
	MaxWorkers int
}

// NewGroup starts a group with Workers(workers) worker goroutines.
// The workers exit after Wait; a Group is single-use.
func NewGroup(ctx context.Context, workers int) *Group {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Group{}
	g.cond = sync.NewCond(&g.mu)
	g.ctx, g.cancel = context.WithCancel(ctx)
	for i := 0; i < Workers(workers); i++ {
		//lint:ignore goroleak workers are joined by Wait through the cond/pending protocol, not a WaitGroup
		go g.worker()
	}
	return g
}

// Submit enqueues fn as a group task. Safe from inside other tasks.
// If the group is already cancelled the task is counted as dropped and
// Submit returns the context error instead of silently queueing work
// that would never run — the submitter learns immediately that its
// branch is dead. Submitting after Wait has returned panics.
func (g *Group) Submit(fn func(ctx context.Context) error) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		panic("pool: Submit on a finished Group")
	}
	if err := g.ctx.Err(); err != nil {
		g.dropped++
		g.mu.Unlock()
		return err
	}
	g.pending++
	g.queue = append(g.queue, fn)
	g.cond.Broadcast()
	g.mu.Unlock()
	return nil
}

// Fork is the cutoff-gated scheduling helper of the geometric RCB
// recursion: a
// subproblem of size >= cutoff is submitted as its own task (Fork
// returns nil immediately), anything smaller runs inline on the
// calling goroutine so small subtrees don't pay scheduling overhead.
// The inline path returns fn's error; callers propagate it so the
// group cancels exactly as it would for a submitted task. On a
// cancelled group Fork returns the context error without running or
// queueing fn (the recursion is already dead; starting more of it
// only delays Wait). Inline panics are not intercepted here — when
// Fork is called from inside a task the worker's recovery catches
// them, and on the strictly serial path (nil *Group, also valid) they
// reach the caller unchanged.
func (g *Group) Fork(size, cutoff int, fn func(ctx context.Context) error) error {
	if g != nil && size >= cutoff {
		return g.Submit(fn)
	}
	//lint:ignore ctxflow the nil-Group serial path runs inline on the caller's stack; there is no group context to inherit
	ctx := context.Background()
	if g != nil {
		if err := g.ctx.Err(); err != nil {
			return err
		}
		ctx = g.ctx
	}
	return fn(ctx)
}

// Wait blocks until every submitted task has run or been dropped,
// shuts the workers down, and returns the first task failure (panics
// included, as *PanicError). If the parent context was cancelled and
// tasks were dropped because of it, Wait returns that context error.
func (g *Group) Wait() error {
	g.mu.Lock()
	for g.pending > 0 {
		g.cond.Wait()
	}
	g.closed = true
	g.cond.Broadcast()
	err := g.err
	dropped := g.dropped
	g.mu.Unlock()
	g.cancel()
	if err == nil && dropped > 0 {
		err = g.ctx.Err()
	}
	return err
}

// Stats reports the group's scheduling counters.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GroupStats{Tasks: g.tasks, Dropped: g.dropped, MaxWorkers: g.maxBusy}
}

func (g *Group) worker() {
	g.mu.Lock()
	for {
		for len(g.queue) == 0 && !g.closed {
			g.cond.Wait()
		}
		if len(g.queue) == 0 {
			g.mu.Unlock()
			return
		}
		fn := g.queue[0]
		g.queue = g.queue[1:]
		if g.ctx.Err() != nil {
			g.dropped++
			g.finishLocked()
			continue
		}
		g.tasks++
		g.busy++
		if g.busy > g.maxBusy {
			g.maxBusy = g.busy
		}
		g.mu.Unlock()
		_, err := safely(func(int) (struct{}, error) { return struct{}{}, fn(g.ctx) }, 0)
		g.mu.Lock()
		g.busy--
		if err != nil && g.err == nil {
			g.err = err
			g.cancel()
		}
		g.finishLocked()
	}
}

// finishLocked retires one task and wakes Wait when the group drains.
func (g *Group) finishLocked() {
	g.pending--
	if g.pending == 0 {
		g.cond.Broadcast()
	}
}

// safely invokes fn(i), converting a panic into a *PanicError. A
// *PanicError re-raised by a nested Ranges passes through unwrapped,
// keeping the stack of the worker that failed first.
func safely[T any](fn func(i int) (T, error), i int) (out T, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *PanicError:
			err = r
		default:
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// run is the shared scheduler: n jobs, min(Workers(workers), n)
// goroutines pulling indices from a channel. job must not panic
// (callers wrap with safely) and records its own result at its index,
// which is what makes the output ordering deterministic.
func run(workers, n int, job func(i int)) {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
