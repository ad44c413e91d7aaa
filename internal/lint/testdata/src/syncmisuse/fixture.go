// Fixture for the syncmisuse analyzer: ignored pool submissions.
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
