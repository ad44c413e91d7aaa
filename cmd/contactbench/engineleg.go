package main

// The optional engine leg (-engine): one resilient parallel engine
// iteration per k on the first snapshot, so a single contactbench run
// exercises — and one trace file shows — all four layers of the
// pipeline: harness snapshots, engine rank phases, transport
// exchanges (with injected faults and retries when -chaos is set),
// and the partitioner's bisection tasks.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// runEngineLeg decomposes the snapshot and runs one engine iteration
// for each k. chaosSeed != 0 wraps the transport in a deterministic
// fault plan whose drops are restricted to first attempts, so every
// injected fault is recovered by retry (visible as "retry" events in
// the trace) and the results stay identical to a fault-free run.
func runEngineLeg(ctx context.Context, sn sim.Snapshot, ks []int, seed, chaosSeed int64, col *obs.Collector, parent *obs.Span) error {
	fmt.Println()
	for _, k := range ks {
		span := parent.Child("engine_iter", obs.Int("k", int64(k)))
		d, err := core.Decompose(sn.Mesh, core.Config{K: k, Seed: seed, Obs: col, Span: span})
		if err != nil {
			span.End()
			return fmt.Errorf("engine leg k=%d: %w", k, err)
		}
		var plan *fault.Plan
		if chaosSeed != 0 {
			plan = &fault.Plan{
				Seed: chaosSeed, DropProb: 0.25, DupProb: 0.05,
				FirstAttemptOnly: true,
			}
		}
		st, err := engine.Run(obs.ContextWithSpan(ctx, span), sn.Mesh, d, 0.5, engine.Options{
			Obs: col, Fault: plan,
		})
		span.End()
		if err != nil {
			return fmt.Errorf("engine leg k=%d: %w", k, err)
		}
		fmt.Printf("[engine k=%d: %d pairs, %d ghost units, %d elems shipped, degraded=%t]\n",
			k, len(st.Pairs), st.GhostUnits, st.ElemsShipped, st.Degraded)
	}
	return nil
}
