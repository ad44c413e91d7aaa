// Fixture for the obsbalance analyzer: obs phases and spans must be
// ended on every path.
package obsbal

import (
	"context"

	"repro/internal/obs"
)

// discardedPhase drops the phase handle on the floor.
func discardedPhase(c *obs.Collector) {
	c.Phase(nil, "phase") // want: discarded
}

// balancedDefer, balancedVar and balancedDuration are the sanctioned
// shapes; reading the phase's span does not end it.
func balancedDefer(c *obs.Collector, parent *obs.Span) context.Context {
	ph := c.Phase(parent, "phase")
	defer ph.End()
	return obs.ContextWithSpan(context.Background(), ph.Span())
}

func balancedVar(c *obs.Collector) {
	ph := c.Phase(nil, "phase")
	ph.End()
}

func balancedDuration(c *obs.Collector) (ns int64) {
	ph := c.Phase(nil, "phase")
	defer func() { ns = int64(ph.End()) }()
	return 0
}

// earlyReturn ends the phase on only one path.
func earlyReturn(c *obs.Collector, cond bool) {
	ph := c.Phase(nil, "phase")
	if cond {
		return // want: return skips the end
	}
	ph.End()
}

// phaseNeverEnded reads the phase's span but never ends it.
func phaseNeverEnded(c *obs.Collector) *obs.Span {
	ph := c.Phase(nil, "phase") // want: never ended
	return ph.Span()
}

// spanDiscardedStmt opens a span nothing can ever end.
func spanDiscardedStmt(ctx context.Context) {
	obs.StartSpan(ctx, "snapshot") // want: discarded
}

// spanBlank assigns the span to _.
func spanBlank(ctx context.Context) context.Context {
	ctx2, _ := obs.StartSpan(ctx, "snapshot") // want: assigned to _
	return ctx2
}

// spanNeverEnded records events but never ends; the receiver-position
// uses must not count as escapes.
func spanNeverEnded(ctx context.Context) {
	_, span := obs.StartSpan(ctx, "snapshot") // want: never ended
	span.Event("retry")
}

// spanDeferEnd and endInDeferredClosure balance every path.
func spanDeferEnd(ctx context.Context) {
	_, span := obs.StartSpan(ctx, "snapshot")
	defer span.End()
}

func endInDeferredClosure(ctx context.Context) {
	_, span := obs.StartSpan(ctx, "snapshot")
	defer func() {
		span.End()
	}()
}

// rootAndChild: the leaked child is flagged, the balanced root is not.
func rootAndChild(tr *obs.Tracer) {
	root := tr.Root("experiment")
	defer root.End()
	child := root.Child("leg") // want: never ended
	child.Event("e")
}

// escapes hands the span to another owner; the obligation moves with
// it.
func escapes(ctx context.Context) context.Context {
	_, span := obs.StartSpan(ctx, "snapshot")
	return obs.ContextWithSpan(ctx, span)
}

// suppressed documents a deliberate leak (the process exits
// immediately after, so the report is never read).
func suppressed(c *obs.Collector) {
	//lint:ignore obsbalance crash-path instrumentation; the process exits before reporting
	c.Phase(nil, "phase")
}
