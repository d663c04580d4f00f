package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"sr3/internal/metrics"
)

// Collector is an in-memory sink: tests and the bench harness inspect
// complete traces through it.
type Collector struct {
	mu    sync.Mutex
	spans []SpanRecord
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// OnSpan implements Sink.
func (c *Collector) OnSpan(rec SpanRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, rec)
}

// Spans returns a snapshot of all collected spans.
func (c *Collector) Spans() []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanRecord(nil), c.spans...)
}

// Trace returns the spans of one trace, sorted by start time (span ID
// breaking ties, so the order is total and deterministic).
func (c *Collector) Trace(traceID uint64) []SpanRecord {
	c.mu.Lock()
	var out []SpanRecord
	for _, s := range c.spans {
		if s.Trace == traceID {
			out = append(out, s)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Span < out[j].Span
	})
	return out
}

// TraceIDs returns the distinct trace IDs seen, in first-seen order.
func (c *Collector) TraceIDs() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[uint64]bool)
	var out []uint64
	for _, s := range c.spans {
		if !seen[s.Trace] {
			seen[s.Trace] = true
			out = append(out, s.Trace)
		}
	}
	return out
}

// PhaseTotals sums span durations by phase for one trace — the per-phase
// breakdown of a single recovery (the repo's Fig. 9 analogue).
func (c *Collector) PhaseTotals(traceID uint64) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range c.Trace(traceID) {
		out[s.Phase] += s.Duration()
	}
	return out
}

// ExportBinary renders every collected span in the compact binary wire
// format (wire.go) — the batch a remote process ships to a central
// collector.
func (c *Collector) ExportBinary() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var buf []byte
	for _, s := range c.spans {
		buf = AppendSpanRecord(buf, s)
	}
	return buf
}

// WriteJSONL renders every collected span as JSONL (one object per
// line, the JSONLSink schema), sorted by (trace, start, span) so a
// stitched multi-process trace reads top-down. This is the seed's
// /debug/sr3/trace response body.
func (c *Collector) WriteJSONL(w io.Writer) error {
	spans := c.Spans()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Trace != spans[j].Trace {
			return spans[i].Trace < spans[j].Trace
		}
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Span < spans[j].Span
	})
	sink := NewJSONLSink(w)
	for _, s := range spans {
		sink.OnSpan(s)
	}
	return sink.Err()
}

// jsonSpan is the JSONL schema (stable field names for offline tooling).
type jsonSpan struct {
	Trace  uint64     `json:"trace"`
	Span   uint64     `json:"span"`
	Parent uint64     `json:"parent,omitempty"`
	Phase  string     `json:"phase"`
	Start  int64      `json:"start_ns"`
	End    int64      `json:"end_ns"`
	Attrs  []jsonAttr `json:"attrs,omitempty"`
}

type jsonAttr struct {
	Key string `json:"k"`
	Str string `json:"s,omitempty"`
	Int int64  `json:"i,omitempty"`
}

// JSONLSink streams one JSON object per finished span to a writer — the
// offline-analysis trace format (`jq`-able, mergeable with cat).
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLSink wraps a writer (callers own closing it).
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// OnSpan implements Sink.
func (s *JSONLSink) OnSpan(rec SpanRecord) {
	js := jsonSpan{
		Trace: rec.Trace, Span: rec.Span, Parent: rec.Parent,
		Phase: rec.Phase, Start: rec.Start, End: rec.End,
	}
	for _, a := range rec.Attrs {
		js.Attrs = append(js.Attrs, jsonAttr{Key: a.Key, Str: a.Str, Int: a.Int})
	}
	line, err := json.Marshal(js)
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		_, s.err = s.w.Write(line)
	}
}

// Err returns the first write error (writes stop after one).
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// MetricsSink aggregates span durations into per-phase latency
// histograms in a metrics registry: phase p lands in histogram
// "<prefix><p>_ns" and increments counter "<prefix><p>_total". This is
// what the /metrics endpoint exposes.
type MetricsSink struct {
	reg    *metrics.Registry
	prefix string

	mu    sync.Mutex
	hists map[string]*metrics.LatencyHistogram
	ctrs  map[string]*metrics.Counter
}

// NewMetricsSink builds a sink over reg; prefix defaults to "sr3_phase_".
func NewMetricsSink(reg *metrics.Registry, prefix string) *MetricsSink {
	if prefix == "" {
		prefix = "sr3_phase_"
	}
	return &MetricsSink{
		reg:    reg,
		prefix: prefix,
		hists:  make(map[string]*metrics.LatencyHistogram),
		ctrs:   make(map[string]*metrics.Counter),
	}
}

// OnSpan implements Sink.
func (s *MetricsSink) OnSpan(rec SpanRecord) {
	s.mu.Lock()
	h, ok := s.hists[rec.Phase]
	if !ok {
		h = s.reg.Histogram(fmt.Sprintf("%s%s_ns", s.prefix, rec.Phase))
		s.hists[rec.Phase] = h
	}
	ctr, ok := s.ctrs[rec.Phase]
	if !ok {
		ctr = s.reg.Counter(fmt.Sprintf("%s%s_total", s.prefix, rec.Phase))
		s.ctrs[rec.Phase] = ctr
	}
	s.mu.Unlock()
	h.Record(rec.Duration())
	ctr.Inc()
}

// MultiSink fans one span out to several sinks.
type MultiSink []Sink

// OnSpan implements Sink.
func (m MultiSink) OnSpan(rec SpanRecord) {
	for _, s := range m {
		if s != nil {
			s.OnSpan(rec)
		}
	}
}
