// Package obs is the observability layer of the SR3 reproduction: a
// lightweight structured tracer whose spans follow one recovery through
// every phase of the pipeline — heartbeat verdict, supervisor enqueue,
// mechanism selection, per-provider fetch, merge, input-log replay,
// re-protection — plus sinks that aggregate span durations into
// per-phase latency histograms (internal/metrics) or stream them as
// JSONL for offline analysis. The paper evaluates SR3 through exactly
// these breakdowns (Figs. 7–12); the tracer is what lets this repo
// produce them for a single live recovery rather than only in aggregate.
//
// Design constraints, in order:
//
//   - Zero overhead when disabled. Every entry point is nil-receiver
//     safe: a nil *Tracer starts a nil *Span, and every *Span method is a
//     nil-check away from returning. Instrumented code carries no
//     conditionals and the disabled path allocates nothing.
//   - Cheap when enabled. Spans are pooled (sync.Pool) and attributes
//     live in a fixed array on the span; the only allocation per span is
//     the record handed to the sink at End.
//   - Deterministic under virtual time. The clock is injectable, and
//     trace/span IDs are sequential per tracer, so a seeded test run
//     produces identical traces.
//   - Distributed. A SpanContext is two uint64s that ride as plain
//     fields on simnet/nettransport messages (no import cycle, and gob
//     omits zero values, so untraced traffic pays nothing on the wire).
//     Remote handlers parent their spans on the inbound context; each
//     process's sink keeps its own records and batches merge by trace ID
//     (see wire.go / Collector.ExportBinary).
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase names for the recovery pipeline. One recovery produces one trace:
// a root PhaseSelfHeal span whose children are the sequential top-level
// phases; fetch/merge/collect/stall spans nest below PhaseRecover.
const (
	// PhaseSelfHeal is the root span of one supervised recovery, opened
	// at the failure-detection timestamp and closed after re-protection —
	// its duration is the MTTR.
	PhaseSelfHeal = "selfheal"
	// PhaseDetect covers the silence window: last heartbeat arrival from
	// the dead peer to the quorum-confirmed verdict.
	PhaseDetect = "detect"
	// PhaseEnqueue covers the verdict sitting in the supervisor's queue.
	PhaseEnqueue = "enqueue"
	// PhasePlan covers mechanism selection (§3.7) and placement planning.
	PhasePlan = "plan"
	// PhaseRecover covers the mechanism run: placement lookup through
	// snapshot assembly.
	PhaseRecover = "recover"
	// PhaseFetch covers one provider fetch (star, or a degraded tail).
	PhaseFetch = "fetch"
	// PhaseCollect covers one remote line/tree stage's contribution.
	PhaseCollect = "collect"
	// PhaseMerge covers merging fetched shard bytes into the snapshot.
	PhaseMerge = "merge"
	// PhaseReplay covers input-log replay after a task restore.
	PhaseReplay = "replay"
	// PhaseSave covers sharding + scattering a snapshot (Save).
	PhaseSave = "save"
	// PhaseReprotect covers restoring the replication factor after the
	// snapshot is rebuilt (re-save or repair).
	PhaseReprotect = "reprotect"
	// PhaseAdopt covers one control-plane adoption round trip: adopt RPC
	// issued to ACK received (the adopter's recover/fetch/replay spans
	// nest below it, on the adopter's tracer).
	PhaseAdopt = "adopt"
	// PhaseFlow covers replayed recovery output crossing a process
	// boundary: the ingress node records it retroactively when the first
	// traced batch frame of a connection arrives.
	PhaseFlow = "flow"
)

// SpanContext identifies a span within a trace. The zero value is
// invalid; contexts travel across nodes as two plain uint64 fields.
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context names a real trace.
func (c SpanContext) Valid() bool { return c.Trace != 0 }

// Attr is one key/value annotation on a span. Exactly one of Str/Int is
// meaningful per attribute; Str == "" means the value is Int.
type Attr struct {
	Key string
	Str string
	Int int64
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Str: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Int: v} }

// maxAttrs bounds per-span annotations; extras are dropped (spans are a
// phase-accounting tool, not a logging firehose).
const maxAttrs = 8

// SpanRecord is one finished span as handed to sinks. Start/End are
// nanoseconds on the tracer's clock (UnixNano for the default wall
// clock; whatever the injected clock yields under virtual time).
type SpanRecord struct {
	Trace  uint64
	Span   uint64
	Parent uint64
	Phase  string
	Start  int64
	End    int64
	Attrs  []Attr
}

// Duration returns the span's length in nanoseconds.
func (r SpanRecord) Duration() int64 { return r.End - r.Start }

// Sink receives finished spans. OnSpan must be safe for concurrent calls
// and must not retain rec.Attrs beyond the call only if it mutates them
// (the slice is owned by the record).
type Sink interface {
	OnSpan(rec SpanRecord)
}

// Tracer allocates spans and routes finished records to its sink. A nil
// *Tracer is the disabled tracer: all methods no-op and allocate nothing.
type Tracer struct {
	sink   Sink
	now    func() time.Time
	nextID atomic.Uint64
	pool   sync.Pool
}

// Option configures a tracer.
type Option func(*Tracer)

// WithClock injects the tracer's clock — the simnet virtual clock, or a
// deterministic step clock in tests. Default: time.Now.
func WithClock(now func() time.Time) Option {
	return func(t *Tracer) { t.now = now }
}

// WithIDBase seeds the tracer's sequential ID counter. IDs stay
// sequential (deterministic per tracer) but start above base, so tracers
// in different processes minting IDs for the same distributed trace
// cannot collide when every process derives its base from its own stable
// identity (IDBase).
func WithIDBase(base uint64) Option {
	return func(t *Tracer) { t.nextID.Store(base) }
}

// IDBase derives a node-unique ID base from a stable name: an FNV-1a
// hash placed in the top 32 bits, leaving 2^32 sequential span IDs per
// process lifetime. Distinct names yield disjoint ID ranges (modulo hash
// collisions, irrelevant at cluster scale), which is what keeps a trace
// stitched from several processes' collectors free of span-ID clashes.
func IDBase(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	base := (h & 0xFFFFFFFF) << 32
	if base == 0 {
		base = 1 << 32 // never collide with the default tracer's 1,2,3…
	}
	return base
}

// New builds a tracer feeding the given sink (nil sink discards records).
func New(sink Sink, opts ...Option) *Tracer {
	t := &Tracer{sink: sink, now: time.Now}
	t.pool.New = func() any { return new(Span) }
	for _, o := range opts {
		o(t)
	}
	return t
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the tracer's current clock reading (zero time when
// disabled).
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.now()
}

// id mints the next sequential span/trace ID (deterministic per tracer).
func (t *Tracer) id() uint64 { return t.nextID.Add(1) }

// NewRootContext pre-allocates the identity of a root span without
// starting it. The failure detector uses this to stamp a verdict with a
// trace the supervisor later adopts via StartRootAt — so the silence
// window and the recovery land in one connected trace even though they
// are observed by different components.
func (t *Tracer) NewRootContext() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	n := t.id()
	return SpanContext{Trace: n, Span: n}
}

// StartRoot opens a new trace with a root span.
func (t *Tracer) StartRoot(phase string) *Span {
	if t == nil {
		return nil
	}
	return t.start(t.NewRootContext(), 0, phase, t.now())
}

// StartRootAt opens the root span of a pre-allocated trace context (see
// NewRootContext) with an explicit start time — typically the verdict's
// detection timestamp, so the root's duration is the MTTR.
func (t *Tracer) StartRootAt(ctx SpanContext, phase string, start time.Time) *Span {
	if t == nil || !ctx.Valid() {
		return nil
	}
	return t.start(ctx, 0, phase, start)
}

// StartSpan opens a child span under parent. An invalid parent starts a
// new trace (so instrumented library code works without a caller trace).
func (t *Tracer) StartSpan(parent SpanContext, phase string) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.StartRoot(phase)
	}
	return t.start(SpanContext{Trace: parent.Trace, Span: t.id()}, parent.Span, phase, t.now())
}

func (t *Tracer) start(ctx SpanContext, parent uint64, phase string, start time.Time) *Span {
	s := t.pool.Get().(*Span)
	s.t = t
	s.ctx = ctx
	s.parent = parent
	s.phase = phase
	s.start = start.UnixNano()
	s.nattrs = 0
	return s
}

// RecordSpan emits a completed span retroactively — for phases measured
// after the fact (the detect silence window, a flow's first frame) where
// holding an open span through the hot path would cost more than the
// measurement. Returns the new span's context so children can parent on
// it. attrs beyond the per-span cap are dropped.
func (t *Tracer) RecordSpan(parent SpanContext, phase string, start, end time.Time, attrs ...Attr) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	ctx := SpanContext{Trace: parent.Trace, Span: t.id()}
	var parentID uint64
	if parent.Valid() {
		parentID = parent.Span
	} else {
		ctx.Trace = ctx.Span
	}
	if len(attrs) > maxAttrs {
		attrs = attrs[:maxAttrs]
	}
	rec := SpanRecord{
		Trace:  ctx.Trace,
		Span:   ctx.Span,
		Parent: parentID,
		Phase:  phase,
		Start:  start.UnixNano(),
		End:    end.UnixNano(),
	}
	if len(attrs) > 0 {
		rec.Attrs = append([]Attr(nil), attrs...)
	}
	if t.sink != nil {
		t.sink.OnSpan(rec)
	}
	return ctx
}

// Span is one in-progress phase. A nil *Span (from a disabled tracer) is
// safe to annotate and End.
type Span struct {
	t      *Tracer
	ctx    SpanContext
	parent uint64
	phase  string
	start  int64
	attrs  [maxAttrs]Attr
	nattrs int
}

// Ctx returns the span's context (zero when disabled) for parenting
// children or stamping outbound messages.
func (s *Span) Ctx() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// SetAttr annotates the span; attributes beyond the cap are dropped.
func (s *Span) SetAttr(a Attr) {
	if s == nil || s.nattrs >= maxAttrs {
		return
	}
	s.attrs[s.nattrs] = a
	s.nattrs++
}

// SetStr annotates the span with a string value.
func (s *Span) SetStr(k, v string) { s.SetAttr(Str(k, v)) }

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(k string, v int64) { s.SetAttr(Int(k, v)) }

// End closes the span, hands the record to the sink and recycles the
// span. The span must not be used afterwards.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	rec := SpanRecord{
		Trace:  s.ctx.Trace,
		Span:   s.ctx.Span,
		Parent: s.parent,
		Phase:  s.phase,
		Start:  s.start,
		End:    t.now().UnixNano(),
	}
	if s.nattrs > 0 {
		rec.Attrs = append([]Attr(nil), s.attrs[:s.nattrs]...)
	}
	s.t = nil
	t.pool.Put(s)
	if t.sink != nil {
		t.sink.OnSpan(rec)
	}
}

// EndErr closes the span, recording err (if non-nil) as an "err"
// attribute first.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetStr("err", err.Error())
	}
	s.End()
}

// StepClock returns a deterministic clock for tests: each call advances
// the returned time by step, starting at start. It is safe for
// concurrent use.
func StepClock(start time.Time, step time.Duration) func() time.Time {
	var mu sync.Mutex
	t := start
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(step)
		return t
	}
}
