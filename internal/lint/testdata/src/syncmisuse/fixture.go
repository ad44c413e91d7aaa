// Fixture for the syncmisuse analyzer: ignored pool submissions and
// discarded pool fan-out errors.
package syncmisuse

import (
	"context"

	"repro/internal/pool"
)

// ignoredSubmit and ignoredFork drop the cancellation signal.
func ignoredSubmit(g *pool.Group) {
	g.Submit(func(ctx context.Context) error { return nil }) // want: Submit error ignored
}

func ignoredFork(g *pool.Group) {
	g.Fork(100, 10, func(ctx context.Context) error { return nil }) // want: Fork error ignored
}

// handledSubmit propagates; blankedSubmit discards visibly.
func handledSubmit(g *pool.Group) error {
	return g.Submit(func(ctx context.Context) error { return nil })
}

func blankedSubmit(g *pool.Group) {
	_ = g.Submit(func(ctx context.Context) error { return nil })
}

// suppressed documents why the drop is safe.
func suppressed(g *pool.Group) {
	//lint:ignore syncmisuse fresh group, cannot be cancelled before this enqueue
	g.Submit(func(ctx context.Context) error { return nil })
}

// droppedFanOuts lose a job's panic, bare or through the blank
// identifier.
func droppedFanOuts(fns []func() error) []int {
	pool.Run(2, fns...)     // want: Run error discarded
	_ = pool.Run(2, fns...) // want: Run error discarded
	sq := func(i int) (int, error) { return i * i, nil }
	out, _ := pool.Map(2, 4, sq) // want: Map error discarded
	_, _ = pool.Map(2, 4, sq)    // want: Map error discarded
	pool.Map(2, 4, sq)           // want: Map error discarded
	return out
}

// handledFanOuts return the error or re-raise it; Ranges re-raises
// on its own.
func handledFanOuts(fns []func() error) ([]int, error) {
	if err := pool.Run(2, fns...); err != nil {
		panic(err)
	}
	_ = pool.Ranges(2, 4, func(lo, hi int) int { return hi - lo })
	return pool.Map(2, 4, func(i int) (int, error) { return i, nil })
}
