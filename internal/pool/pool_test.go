package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		out, err := Map(workers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(workers, 50, func(i int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent jobs, cap %d", p, workers)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	_, err := Map(4, 10, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, errA
		case 7:
			return 0, errB
		}
		return i, nil
	})
	if err != errA {
		t.Errorf("got %v, want first error in index order", err)
	}
}

func TestMapRunsAllJobsDespiteError(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(2, 20, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	if n := ran.Load(); n != 20 {
		t.Errorf("ran %d of 20 jobs", n)
	}
}

func TestMapPanicCapture(t *testing.T) {
	out, err := Map(4, 8, func(i int) (int, error) {
		if i == 5 {
			panic(fmt.Sprintf("job %d exploded", i))
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Value != "job 5 exploded" || len(pe.Stack) == 0 {
		t.Errorf("panic payload: %+v", pe.Value)
	}
	// Healthy jobs still produced their results.
	if out[7] != 7 {
		t.Errorf("out[7] = %d", out[7])
	}
}

func TestRunConcurrentAndOrdered(t *testing.T) {
	var mu sync.Mutex
	got := map[string]bool{}
	err := Run(0,
		func() error { mu.Lock(); got["a"] = true; mu.Unlock(); return nil },
		func() error { mu.Lock(); got["b"] = true; mu.Unlock(); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !got["a"] || !got["b"] {
		t.Errorf("jobs missed: %v", got)
	}
}

func TestRunErrorAndPanic(t *testing.T) {
	errX := errors.New("x")
	if err := Run(2, func() error { return nil }, func() error { return errX }); err != errX {
		t.Errorf("got %v", err)
	}
	err := Run(2, func() error { panic("bad") }, func() error { return errX })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Errorf("first-by-order error should be the panic, got %v", err)
	}
}

func TestRunZeroJobs(t *testing.T) {
	if err := Run(4); err != nil {
		t.Fatal(err)
	}
	out, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: %v %v", out, err)
	}
}

func TestGroupRecursiveFanOut(t *testing.T) {
	// Tasks submit subtasks, fork-join style: sum 1..n by binary
	// splitting, each leaf adding its value. Exercises Submit from
	// inside tasks and Wait draining a growing queue.
	g := NewGroup(context.Background(), 4)
	var sum atomic.Int64
	var split func(lo, hi int) func(context.Context) error
	split = func(lo, hi int) func(context.Context) error {
		return func(ctx context.Context) error {
			if hi-lo == 1 {
				sum.Add(int64(lo))
				return nil
			}
			mid := (lo + hi) / 2
			if err := g.Submit(split(lo, mid)); err != nil {
				return err
			}
			return split(mid, hi)(ctx)
		}
	}
	if err := g.Submit(split(1, 101)); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if s := sum.Load(); s != 5050 {
		t.Errorf("sum = %d, want 5050", s)
	}
	st := g.Stats()
	if st.Tasks == 0 || st.Dropped != 0 || st.MaxWorkers < 1 || st.MaxWorkers > 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGroupErrorCancelsQueuedSiblings(t *testing.T) {
	// One worker: the failing task runs first, so everything queued
	// behind it must be dropped, not run.
	g := NewGroup(context.Background(), 1)
	boom := errors.New("boom")
	var ran atomic.Int64
	if err := g.Submit(func(ctx context.Context) error { return boom }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		// The boom task may already have cancelled the group, making
		// Submit legitimately return the context error; either way the
		// task counts as dropped, which is what the test asserts.
		_ = g.Submit(func(ctx context.Context) error {
			ran.Add(1)
			return nil
		})
	}
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want %v", err, boom)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d queued siblings ran after the failure", n)
	}
	if st := g.Stats(); st.Dropped != 50 {
		t.Errorf("dropped = %d, want 50", st.Dropped)
	}
}

func TestGroupExternalCancellationStopsQueuedTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(ctx, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	var ran atomic.Int64
	if err := g.Submit(func(ctx context.Context) error {
		close(started)
		<-release
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := g.Submit(func(ctx context.Context) error {
			ran.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err) // cancel() has not been called yet; Submit cannot fail
		}
	}
	<-started // the blocker occupies the only worker; the rest are queued
	cancel()
	close(release)
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d queued tasks ran after cancellation", n)
	}
}

func TestGroupSubmitAfterCancelReturnsError(t *testing.T) {
	// Regression: Submit on a cancelled group used to queue the task
	// silently (it would be dropped later without the submitter ever
	// learning); it must return the context error immediately.
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(ctx, 2)
	cancel()
	ran := false
	err := g.Submit(func(ctx context.Context) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit after cancel = %v, want context.Canceled", err)
	}
	if werr := g.Wait(); !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", werr)
	}
	if ran {
		t.Error("task submitted after cancellation ran")
	}
	if st := g.Stats(); st.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", st.Dropped)
	}
}

func TestGroupCancellationMidFork(t *testing.T) {
	// Regression: a recursive task whose group is cancelled mid-fork
	// must get the context error back from Fork — on both the submit
	// path (size >= cutoff) and the inline path — instead of silently
	// continuing the recursion.
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(ctx, 2)
	forkErrs := make(chan error, 2)
	ran := make(chan struct{}, 2)
	if err := g.Submit(func(ctx context.Context) error {
		cancel() // the "failure" happens while this task is mid-recursion
		forkErrs <- g.Fork(100, 10, func(ctx context.Context) error {
			ran <- struct{}{}
			return nil
		})
		forkErrs <- g.Fork(1, 10, func(ctx context.Context) error {
			ran <- struct{}{}
			return nil
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	g.Wait()
	for i := 0; i < 2; i++ {
		if err := <-forkErrs; !errors.Is(err, context.Canceled) {
			t.Errorf("Fork %d after cancel = %v, want context.Canceled", i, err)
		}
	}
	select {
	case <-ran:
		t.Error("forked task ran after cancellation")
	default:
	}
}

func TestGroupPanicBecomesError(t *testing.T) {
	g := NewGroup(context.Background(), 2)
	if err := g.Submit(func(ctx context.Context) error { panic("kaboom") }); err != nil {
		t.Fatal(err)
	}
	err := g.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "kaboom" {
		t.Fatalf("Wait = %v, want *PanicError(kaboom)", err)
	}
}

func TestGroupForkCutoff(t *testing.T) {
	g := NewGroup(context.Background(), 2)
	var forked, inline atomic.Int64
	// The group is fresh and cannot be cancelled before this enqueue;
	// the inline Fork failure below is delivered through Wait.
	_ = g.Submit(func(ctx context.Context) error {
		// Above cutoff: scheduled as a task, returns nil immediately.
		if err := g.Fork(100, 10, func(ctx context.Context) error {
			forked.Add(1)
			return nil
		}); err != nil {
			return err
		}
		// Below cutoff: runs inline, error comes straight back.
		return g.Fork(5, 10, func(ctx context.Context) error {
			inline.Add(1)
			return errors.New("inline failure")
		})
	})
	if err := g.Wait(); err == nil {
		t.Fatal("inline Fork error lost")
	}
	if inline.Load() != 1 {
		t.Error("inline path did not run")
	}
}

func TestGroupForkNilRunsInline(t *testing.T) {
	// A nil group is the strictly serial path: everything inline.
	var g *Group
	ran := false
	if err := g.Fork(1<<30, 1, func(ctx context.Context) error {
		ran = true
		return nil
	}); err != nil || !ran {
		t.Fatalf("nil-group Fork: ran=%v err=%v", ran, err)
	}
}

func TestGroupWaitEmpty(t *testing.T) {
	g := NewGroup(context.Background(), 3)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(5) != 5 {
		t.Error("explicit count ignored")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Error("default should be GOMAXPROCS")
	}
}

func TestRangesSplit(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 200} {
		for _, n := range []int{0, 1, 7, 100} {
			got := Ranges(workers, n, func(lo, hi int) [2]int { return [2]int{lo, hi} })
			if want := min(workers, n); len(got) != want {
				t.Fatalf("workers=%d n=%d: %d ranges, want %d", workers, n, len(got), want)
			}
			for i, r := range got {
				w := len(got)
				if r != [2]int{n * i / w, n * (i + 1) / w} || r[0] >= r[1] {
					t.Fatalf("workers=%d n=%d: range %d = %v", workers, n, i, r)
				}
			}
		}
	}
}

// TestRangesReraisesPanic: a panic in any range, the only range
// included, reaches the caller's recover as a *PanicError, and only
// once every range has finished; a nested Ranges' panic passes
// through unwrapped.
func TestRangesReraisesPanic(t *testing.T) {
	for _, tc := range []struct {
		name           string
		workers, panic int
		nested         bool
	}{
		{"one range", 1, 0, false},
		{"non-first range", 4, 2, false},
		{"nested", 4, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var finished atomic.Int64
			var got any
			panicking := make(chan struct{})
			func() {
				defer func() { got = recover() }()
				Ranges(tc.workers, 100, func(lo, hi int) int {
					defer finished.Add(1)
					if lo != 100*tc.panic/tc.workers {
						<-panicking // still running when the panic happens
						return 0
					}
					close(panicking)
					if tc.nested {
						Ranges(2, hi-lo, func(int, int) int { panic("boom") })
					}
					panic("boom")
				})
			}()
			pe, ok := got.(*PanicError)
			if !ok {
				t.Fatalf("recovered %T (%v), want *PanicError", got, got)
			}
			if pe.Value != "boom" || len(pe.Stack) == 0 {
				t.Errorf("panic payload %v, stack %d bytes", pe.Value, len(pe.Stack))
			}
			if n := finished.Load(); n != int64(tc.workers) {
				t.Errorf("re-raised after %d of %d ranges finished", n, tc.workers)
			}
		})
	}
}
