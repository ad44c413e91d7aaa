package engine

// Integration test for span coverage of the engine layers: one traced
// Run with first-attempt-only fault injection must produce a trace
// that validates (balanced, monotonic) and contains the canonical span
// and event names for every layer the engine touches — rank phases,
// transport exchanges, retries, and the injected faults themselves.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

func TestEngineTraceCoversAllLayers(t *testing.T) {
	const k = 5
	sn, d := testSetup(t, k, 30)

	// Fault-free reference.
	ref, err := Run(context.Background(), sn.Mesh, d, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer()
	root := tr.Root("engine_test")
	st, err := Run(obs.ContextWithSpan(context.Background(), root), sn.Mesh, d, 0.5, Options{
		Obs: obs.New(),
		Fault: &fault.Plan{
			Seed:             42,
			DropProb:         0.3,
			DupProb:          0.05,
			FirstAttemptOnly: true,
		},
	})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	// First-attempt-only faults must be fully recovered by retries.
	if st.Degraded {
		t.Fatal("engine degraded under first-attempt-only faults")
	}
	if len(st.Pairs) != len(ref.Pairs) {
		t.Fatalf("faulted run found %d pairs, fault-free %d", len(st.Pairs), len(ref.Pairs))
	}

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}

	// Every rank contributes a span on its own track plus the three
	// phase spans beneath it.
	for name, want := range map[string]int{
		"rank":           k,
		"ghost_exchange": k,
		"global_search":  k,
		"local_search":   k,
	} {
		if sum.Names[name] != want {
			t.Errorf("span %q appears %d times, want %d", name, sum.Names[name], want)
		}
	}
	// Transport exchanges happen at least once per rank per exchanging
	// phase; with drops injected, retries and fault events must show.
	for _, name := range []string{"transport_exchange", "retry", "fault_drop"} {
		if sum.Names[name] == 0 {
			t.Errorf("trace has no %q span/event", name)
		}
	}
	// One lane per rank track plus the main track.
	if sum.Tracks < k+1 {
		t.Errorf("trace has %d lanes, want at least %d (k ranks + main)", sum.Tracks, k+1)
	}
}
