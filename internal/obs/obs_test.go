package obs

import (
	"strings"
	"sync"
	"testing"
	"time"

	"sr3/internal/metrics"
)

func stepTracer() (*Tracer, *Collector) {
	c := NewCollector()
	return New(c, WithClock(StepClock(time.Unix(100, 0), time.Millisecond))), c
}

// TestSpanNesting: a root with two children must produce records with
// correct trace/parent links and clock-ordered bounds.
func TestSpanNesting(t *testing.T) {
	tr, c := stepTracer()
	root := tr.StartRoot(PhaseSelfHeal)
	rootCtx := root.Ctx()
	if !rootCtx.Valid() || rootCtx.Trace != rootCtx.Span {
		t.Fatalf("root ctx = %+v", rootCtx)
	}
	child := tr.StartSpan(rootCtx, PhaseRecover)
	grand := tr.StartSpan(child.Ctx(), PhaseFetch)
	grand.End()
	child.End()
	root.End()

	spans := c.Trace(rootCtx.Trace)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byPhase := map[string]SpanRecord{}
	for _, s := range spans {
		byPhase[s.Phase] = s
	}
	if byPhase[PhaseRecover].Parent != rootCtx.Span {
		t.Fatalf("recover parent = %d, want %d", byPhase[PhaseRecover].Parent, rootCtx.Span)
	}
	if byPhase[PhaseFetch].Parent != byPhase[PhaseRecover].Span {
		t.Fatal("fetch not parented on recover")
	}
	if byPhase[PhaseSelfHeal].Parent != 0 {
		t.Fatal("root has a parent")
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("%s ends before start", s.Phase)
		}
	}
	if byPhase[PhaseFetch].End > byPhase[PhaseRecover].End || byPhase[PhaseRecover].End > byPhase[PhaseSelfHeal].End {
		t.Fatal("LIFO end order violated under step clock")
	}
}

// TestStartSpanWithoutParent: an invalid parent starts a fresh trace —
// instrumented library code must work without a caller trace.
func TestStartSpanWithoutParent(t *testing.T) {
	tr, c := stepTracer()
	sp := tr.StartSpan(SpanContext{}, PhaseSave)
	ctx := sp.Ctx()
	sp.End()
	if !ctx.Valid() || ctx.Trace != ctx.Span {
		t.Fatalf("orphan span ctx = %+v, want fresh root", ctx)
	}
	if got := c.Trace(ctx.Trace); len(got) != 1 || got[0].Parent != 0 {
		t.Fatalf("orphan trace = %+v", got)
	}
}

// TestRecordSpanRetroactive: after-the-fact spans must carry the given
// bounds and attach to the parent; with an invalid parent they root a
// new trace.
func TestRecordSpanRetroactive(t *testing.T) {
	tr, c := stepTracer()
	parent := tr.NewRootContext()
	start := time.Unix(50, 0)
	end := time.Unix(60, 0)
	ctx := tr.RecordSpan(parent, PhaseDetect, start, end, Str("peer", "n1"), Int("probes", 7))
	if ctx.Trace != parent.Trace {
		t.Fatal("retroactive span escaped the parent trace")
	}
	spans := c.Trace(parent.Trace)
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	s := spans[0]
	if s.Start != start.UnixNano() || s.End != end.UnixNano() {
		t.Fatalf("bounds [%d,%d]", s.Start, s.End)
	}
	if s.Parent != parent.Span || len(s.Attrs) != 2 {
		t.Fatalf("record = %+v", s)
	}

	rootless := tr.RecordSpan(SpanContext{}, PhaseFlow, start, end)
	if !rootless.Valid() || rootless.Trace != rootless.Span {
		t.Fatalf("rootless retroactive ctx = %+v", rootless)
	}
}

// TestNewRootContextEmitsNothing: pre-allocating a root identity (the
// detector's verdict stamp) must not emit records — unadopted verdicts
// leave no orphan spans.
func TestNewRootContextEmitsNothing(t *testing.T) {
	tr, c := stepTracer()
	for i := 0; i < 5; i++ {
		if ctx := tr.NewRootContext(); !ctx.Valid() {
			t.Fatal("invalid pre-allocated context")
		}
	}
	if got := c.Spans(); len(got) != 0 {
		t.Fatalf("pre-allocation emitted %d spans", len(got))
	}
}

// TestAttrCapAndOverflow: the 9th attribute drops silently; the record
// keeps the first 8.
func TestAttrCapAndOverflow(t *testing.T) {
	tr, c := stepTracer()
	sp := tr.StartRoot(PhasePlan)
	for i := 0; i < maxAttrs+3; i++ {
		sp.SetInt("k", int64(i))
	}
	sp.End()
	if got := c.Spans()[0].Attrs; len(got) != maxAttrs {
		t.Fatalf("kept %d attrs, want %d", len(got), maxAttrs)
	}
}

// TestDisabledTracerIsFreeAndSafe: the nil tracer must no-op through
// every entry point without allocating.
func TestDisabledTracerIsFreeAndSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer claims enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan(SpanContext{Trace: 9, Span: 9}, PhaseFetch)
		sp.SetStr("k", "v")
		sp.SetInt("n", 1)
		sp.End()
		tr.RecordSpan(SpanContext{}, PhaseFlow, time.Time{}, time.Time{})
		tr.StartRoot(PhaseSelfHeal).EndErr(nil)
		tr.StartRootAt(SpanContext{Trace: 1, Span: 1}, PhaseSelfHeal, time.Time{}).End()
		if tr.NewRootContext().Valid() {
			t.Fatal("nil tracer minted a context")
		}
		if !tr.Now().IsZero() {
			t.Fatal("nil tracer has a clock")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op", allocs)
	}
}

// TestSpanPooling: ended spans must be recycled — steady-state tracing
// allocates only the record, not the span.
func TestSpanPooling(t *testing.T) {
	tr := New(nil) // nil sink: records are discarded, isolating span cost
	// Warm the pool.
	for i := 0; i < 100; i++ {
		tr.StartRoot(PhaseFetch).End()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartRoot(PhaseFetch)
		sp.SetInt("i", 1)
		sp.End()
	})
	// One span cycle may still allocate the pooled span occasionally (GC
	// can clear sync.Pool), but steady state must stay near zero.
	if allocs > 1 {
		t.Fatalf("enabled span cycle allocates %v, want ≤1", allocs)
	}
}

// TestEndErr records the error as an attribute; a nil error adds none.
func TestEndErr(t *testing.T) {
	tr, c := stepTracer()
	tr.StartRoot(PhaseRecover).EndErr(errFake{})
	tr.StartRoot(PhaseRecover).EndErr(nil)
	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0].Key != "err" || spans[0].Attrs[0].Str != "fake failure" {
		t.Fatalf("err attr = %+v", spans[0].Attrs)
	}
	if len(spans[1].Attrs) != 0 {
		t.Fatal("nil error recorded an attribute")
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake failure" }

// TestConcurrentSpans: concurrent starts/ends across goroutines must
// yield unique span IDs and no lost records (run with -race).
func TestConcurrentSpans(t *testing.T) {
	tr, c := stepTracer()
	root := tr.StartRoot(PhaseSelfHeal)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.StartSpan(root.Ctx(), PhaseFetch)
				sp.SetInt("i", int64(i))
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	spans := c.Spans()
	if len(spans) != workers*perWorker+1 {
		t.Fatalf("got %d spans, want %d", len(spans), workers*perWorker+1)
	}
	seen := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		if seen[s.Span] {
			t.Fatalf("duplicate span ID %d", s.Span)
		}
		seen[s.Span] = true
	}
}

// TestCollectorPhaseTotalsAndTraceFiltering: totals must sum per phase
// within one trace only, and Trace must sort deterministically.
func TestCollectorPhaseTotalsAndTraceFiltering(t *testing.T) {
	tr, c := stepTracer()
	a := tr.StartRoot(PhaseSelfHeal)
	aCtx := a.Ctx() // capture before End: ended spans are pooled and reused
	tr.RecordSpan(aCtx, PhaseFetch, time.Unix(1, 0), time.Unix(2, 0))
	tr.RecordSpan(aCtx, PhaseFetch, time.Unix(2, 0), time.Unix(4, 0))
	a.End()
	b := tr.StartRoot(PhaseSelfHeal)
	tr.RecordSpan(b.Ctx(), PhaseFetch, time.Unix(1, 0), time.Unix(10, 0))
	b.End()

	totals := c.PhaseTotals(aCtx.Trace)
	if got := totals[PhaseFetch]; got != int64(3*time.Second) {
		t.Fatalf("trace-a fetch total = %d", got)
	}
	if ids := c.TraceIDs(); len(ids) != 2 {
		t.Fatalf("TraceIDs = %v", ids)
	}
	spans := c.Trace(aCtx.Trace)
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatal("Trace not sorted by start")
		}
	}
}

// TestJSONLSink: one line per span, stable field names, attrs preserved.
func TestJSONLSink(t *testing.T) {
	var buf strings.Builder
	sink := NewJSONLSink(&buf)
	tr := New(sink, WithClock(StepClock(time.Unix(5, 0), time.Millisecond)))
	sp := tr.StartRoot(PhaseRecover)
	sp.SetStr("app", "wc")
	sp.End()
	tr.RecordSpan(SpanContext{}, PhaseFlow, time.Unix(1, 0), time.Unix(2, 0), Int("ns", 42))
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.Contains(lines[0], `"phase":"recover"`) || !strings.Contains(lines[0], `"k":"app"`) {
		t.Fatalf("line 0 = %s", lines[0])
	}
	if !strings.Contains(lines[1], `"phase":"flow"`) {
		t.Fatalf("line 1 = %s", lines[1])
	}
}

// TestMetricsSinkAggregates: spans land in per-phase histograms and
// counters under the default prefix.
func TestMetricsSinkAggregates(t *testing.T) {
	reg := metrics.NewRegistry()
	sink := NewMetricsSink(reg, "")
	tr := New(sink, WithClock(StepClock(time.Unix(9, 0), time.Millisecond)))
	for i := 0; i < 3; i++ {
		tr.StartRoot(PhaseFetch).End()
	}
	h := reg.Histogram("sr3_phase_fetch_ns")
	if h.Count() != 3 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	if got := reg.Counter("sr3_phase_fetch_total").Value(); got != 3 {
		t.Fatalf("counter = %d", got)
	}
	// Step clock: every span is exactly one tick long.
	if h.Min() != int64(time.Millisecond) || h.Max() != int64(time.Millisecond) {
		t.Fatalf("span durations min=%d max=%d", h.Min(), h.Max())
	}
}

// TestMultiSinkFanOut: every non-nil sink sees every span; nil entries
// are skipped.
func TestMultiSinkFanOut(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	tr := New(MultiSink{a, nil, b})
	tr.StartRoot(PhasePlan).End()
	if len(a.Spans()) != 1 || len(b.Spans()) != 1 {
		t.Fatalf("fan-out missed a sink: %d/%d", len(a.Spans()), len(b.Spans()))
	}
}

// TestStepClockMonotonic: the virtual clock must advance exactly one
// step per reading, under concurrency too.
func TestStepClockMonotonic(t *testing.T) {
	clock := StepClock(time.Unix(0, 0), time.Second)
	if got := clock(); !got.Equal(time.Unix(1, 0)) {
		t.Fatalf("first tick = %v", got)
	}
	var wg sync.WaitGroup
	const n = 100
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); clock() }()
	}
	wg.Wait()
	if got := clock(); !got.Equal(time.Unix(n+2, 0)) {
		t.Fatalf("after %d concurrent ticks: %v", n, got)
	}
}

// BenchmarkDisabledSpan documents the nil-tracer cost at every
// instrumentation point: it must stay at 0 allocs/op (asserted by
// TestDisabledTracerIsFreeAndSafe) and single-digit ns.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(SpanContext{Trace: 1, Span: 1}, PhaseFetch)
		sp.SetInt("n", int64(i))
		sp.End()
	}
}

// BenchmarkEnabledSpan is the reference cost of a pooled span cycle into
// a discarding sink.
func BenchmarkEnabledSpan(b *testing.B) {
	tr := New(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartRoot(PhaseFetch)
		sp.SetInt("n", int64(i))
		sp.End()
	}
}
