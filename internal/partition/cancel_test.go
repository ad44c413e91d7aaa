package partition

// Context-cancellation contract of KWay (the per-job deadline path
// of the partitioning service): cancelling the context stops a large
// in-flight k-way partition within a bounded wall clock — far below
// the uncancelled runtime — and the pool workers the recursion forked
// drain and exit rather than leaking.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// cancelBound is the promptness budget: cancellation is checked at
// every bisection node and multilevel phase boundary, so the time from
// cancel to return is one phase step, not the remaining recursion. The
// uncancelled partition of cancelGraph takes tens of seconds under
// -race on a small container; 5s is comfortably below that while
// leaving room for slow CI.
const cancelBound = 5 * time.Second

// cancelTestSetup returns the options and parallel cutoff used with
// the 400x400 two-constraint grid: big enough at k=32 that the
// uncancelled partition takes well over cancelBound.
func cancelTestSetup() (Options, int) {
	return Options{K: 32, Seed: 7, Imbalance: 0.05, Workers: 2}, 4096
}

// waitGoroutines polls until the goroutine count settles back to at
// most base, failing the test if it never does: a leaked pool worker
// would keep the count elevated forever.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(cancelBound) //lint:ignore detrand test promptness bound; never feeds a partition
	for {
		runtime.GC() // finalize exited goroutine stacks promptly
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) { //lint:ignore detrand test promptness bound; never feeds a partition
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak after cancelled KWay: %d goroutines, baseline %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestKWayCtxCancelStopsPromptly(t *testing.T) {
	g := grid(400, 400, 2)
	opt, cutoff := cancelTestSetup()
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now() //lint:ignore detrand test promptness bound; never feeds a partition
	labels, err := kwayAt(ctx, g, opt, cutoff)
	elapsed := time.Since(t0) //lint:ignore detrand test promptness bound; never feeds a partition
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("KWay after cancel: err = %v, want context.Canceled", err)
	}
	if labels != nil {
		t.Fatalf("cancelled KWay returned labels")
	}
	if elapsed > cancelBound {
		t.Fatalf("cancelled KWay took %v, want <= %v", elapsed, cancelBound)
	}
	waitGoroutines(t, base)
}

func TestKWayCtxDeadlineStopsPromptly(t *testing.T) {
	g := grid(400, 400, 2)
	opt, cutoff := cancelTestSetup()
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now() //lint:ignore detrand test promptness bound; never feeds a partition
	_, err := kwayAt(ctx, g, opt, cutoff)
	elapsed := time.Since(t0) //lint:ignore detrand test promptness bound; never feeds a partition
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("KWay after deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > cancelBound {
		t.Fatalf("deadline-expired KWay took %v, want <= %v", elapsed, cancelBound)
	}
	waitGoroutines(t, base)
}

// TestKWayCtxUncancelledIdentical pins that threading a live context
// through the recursion does not perturb the labels: KWay under a
// cancellable context that never fires is bit-identical to KWay under
// the nil (never-cancelled) context, on both the serial and the pooled
// path.
func TestKWayCtxUncancelledIdentical(t *testing.T) {
	g := grid(120, 120, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{K: 8, Seed: 3, Imbalance: 0.05, Workers: 2}
	for _, cutoff := range []int{serialCutoff, 2048} {
		want, err := kwayAt(nil, g, opt, cutoff)
		if err != nil {
			t.Fatalf("KWay(nil ctx): %v", err)
		}
		got, err := kwayAt(ctx, g, opt, cutoff)
		if err != nil {
			t.Fatalf("KWay(live ctx): %v", err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("cutoff %d: labels diverge at vertex %d: live ctx %d, nil ctx %d", cutoff, v, got[v], want[v])
			}
		}
	}
}
