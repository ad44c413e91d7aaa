package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var tr *Tracer
	root := tr.Root("root", Int("k", 4))
	if root != nil {
		t.Fatalf("nil tracer produced a span")
	}
	child := root.Child("child")
	if child != nil {
		t.Fatalf("nil span produced a child")
	}
	child.Event("ev", Str("a", "b"))
	child.End()
	if got := root.Name(); got != "" {
		t.Errorf("nil span name = %q", got)
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if s := SpanFromContext(ctx); s != nil {
		t.Errorf("span from bare context = %v", s)
	}
	ctx2, s := StartSpan(ctx, "x")
	if s != nil || ctx2 != ctx {
		t.Errorf("StartSpan on span-less context allocated: %v", s)
	}
}

func TestSpanNestingAndContext(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("root", Track("main"))
	ctx := ContextWithSpan(context.Background(), root)

	ctx2, snap := StartSpan(ctx, "snapshot", Int("t", 3))
	if snap == nil || SpanFromContext(ctx2) != snap {
		t.Fatal("StartSpan did not thread the child through the context")
	}
	_, leg := StartSpan(ctx2, "leg")
	leg.Event("retry", Int("attempt", 1))
	leg.End()
	snap.End()
	root.End()

	spans := tr.snapshotSpans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byName := map[string]*Span{}
	for _, s := range spans {
		byName[s.name] = s
	}
	if byName["snapshot"].parent != byName["root"].id {
		t.Errorf("snapshot parent = %d, want root %d", byName["snapshot"].parent, byName["root"].id)
	}
	if byName["leg"].parent != byName["snapshot"].id {
		t.Errorf("leg parent = %d, want snapshot %d", byName["leg"].parent, byName["snapshot"].id)
	}
	if byName["leg"].track != "main" {
		t.Errorf("leg track = %q, want inherited %q", byName["leg"].track, "main")
	}
	if len(byName["leg"].events) != 1 || byName["leg"].events[0].name != "retry" {
		t.Errorf("leg events = %+v", byName["leg"].events)
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	tr := NewTracer()
	s := tr.Root("once")
	s.End()
	s.End()
	if n := len(tr.snapshotSpans()); n != 1 {
		t.Errorf("double End recorded %d spans", n)
	}
}

// TestWriteTraceValidates: the exporter's own output must pass the
// validator — balanced B/E, monotonic timestamps — including under
// concurrent overlapping spans that force lane fan-out.
func TestWriteTraceValidates(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("sweep")
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rs := root.Child("rank", Int("rank", int64(rank)), Track("ranks"))
			for p := 0; p < 3; p++ {
				ps := rs.Child("phase", Int("phase", int64(p)))
				ps.Event("retry", Int("attempt", 1))
				ps.End()
			}
			rs.End()
		}(r)
	}
	wg.Wait()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exported trace failed validation: %v\n%s", err, buf.String())
	}
	if sum.Spans != 1+4+12 {
		t.Errorf("validated %d spans, want 17", sum.Spans)
	}
	if sum.Names["retry"] != 12 {
		t.Errorf("retry events = %d, want 12", sum.Names["retry"])
	}
	if sum.Tracks < 2 {
		t.Errorf("overlapping rank spans were not fanned out: %d tracks", sum.Tracks)
	}
}

func TestValidateTraceRejectsBroken(t *testing.T) {
	cases := map[string]string{
		"unbalanced": `[{"name":"a","ph":"B","ts":1,"pid":0,"tid":1}]`,
		"mismatch": `[{"name":"a","ph":"B","ts":1,"pid":0,"tid":1},
		              {"name":"b","ph":"E","ts":2,"pid":0,"tid":1}]`,
		"backwards": `[{"name":"a","ph":"B","ts":5,"pid":0,"tid":1},
		               {"name":"a","ph":"E","ts":4,"pid":0,"tid":1}]`,
		"stray end": `[{"name":"a","ph":"E","ts":1,"pid":0,"tid":1}]`,
		"bad phase": `[{"name":"a","ph":"Q","ts":1,"pid":0,"tid":1}]`,
		"no ts":     `[{"name":"a","ph":"B","pid":0,"tid":1}]`,
		"not json":  `{"traceEvents": [}`,
	}
	for name, in := range cases {
		if _, err := ValidateTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated cleanly", name)
		}
	}
	ok := `{"traceEvents":[
	  {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"x"}},
	  {"name":"a","ph":"B","ts":1,"pid":0,"tid":1},
	  {"name":"ev","ph":"i","ts":1.5,"pid":0,"tid":1,"s":"t"},
	  {"name":"a","ph":"E","ts":2,"pid":0,"tid":1}]}`
	sum, err := ValidateTrace(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if sum.Spans != 1 || sum.Events != 4 {
		t.Errorf("summary = %+v", sum)
	}
}

// TestDisabledPathsZeroAlloc is the benchmark guard of the tracing-off
// and nil-collector hot paths: threading observability through the
// engine and partitioner must cost nothing when it is switched off.
func TestDisabledPathsZeroAlloc(t *testing.T) {
	var col *Collector
	ctx := context.Background()
	var span *Span

	checks := map[string]func(){
		"Phase with nil collector and nil parent": func() { col.Phase(span, "p", Int("k", 4)).End() },
		"nil collector Observe":                   func() { col.Observe("p", 1) },
		"nil collector Add":                       func() { col.Add("c", 1) },
		"nil collector Max":                       func() { col.Max("g", 1) },
		"nil collector Hist":                      func() { col.Hist("h", 1) },
		"SpanFromContext":                         func() { _ = SpanFromContext(ctx) },
		//lint:ignore obsbalance the nil span's Child is nil; the no-op path is what this test pins
		"nil span Child":      func() { _ = span.Child("c") },
		"nil span Event":      func() { span.Event("e") },
		"nil span End":        func() { span.End() },
		"ContextWithSpan nil": func() { _ = ContextWithSpan(ctx, nil) },
		//lint:ignore obsbalance tracing is off, so the span is nil; the no-op path is what this test pins
		"StartSpan off": func() { _, _ = StartSpan(ctx, "s") },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
		}
	}
}
