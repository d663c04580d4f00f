package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of latency histograms, gauges and
// counters with Prometheus text exposition. It is the aggregation point
// the observability layer (internal/obs) feeds: one histogram per
// recovery phase, gauges for point-in-time state, counters for totals.
// All accessors are concurrency-safe and create the instrument on first
// use, so recording sites never need registration ceremony.
type Registry struct {
	mu       sync.Mutex
	hists    map[string]*LatencyHistogram
	gauges   map[string]*Gauge
	counters map[string]*Counter
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:    make(map[string]*LatencyHistogram),
		gauges:   make(map[string]*Gauge),
		counters: make(map[string]*Counter),
		help:     make(map[string]string),
	}
}

// SetHelp attaches # HELP text to a metric name, overriding the built-in
// catalog (help.go). Standard SR3 metrics never need this.
func (r *Registry) SetHelp(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// helpFor resolves the help text for a metric: explicit SetHelp first,
// then the built-in catalog (mu held).
func (r *Registry) helpForLocked(name string) string {
	if h, ok := r.help[name]; ok {
		return h
	}
	base, _, _ := strings.Cut(name, "{")
	return catalogHelp(base)
}

// Histogram returns the named latency histogram, creating it on first use.
func (r *Registry) Histogram(name string) *LatencyHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &LatencyHistogram{}
		r.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// HistogramNames lists the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.hists))
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Gauge is a settable point-in-time value.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments the gauge.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// SetMax raises the gauge to v when v is greater — an atomic high-water
// mark (input-channel high-water gauges use this on the hot path).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if cur >= v {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Counter is a monotonically increasing total.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// promName sanitizes a metric name into the Prometheus charset
// [a-zA-Z0-9_:], mapping '.', '-', '/' and spaces to '_'.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// family splits an instrument name into its Prometheus family and the
// label pairs it carries inline: `sr3_recovery_held_bytes{version="cur"}`
// is the sample version="cur" of family sr3_recovery_held_bytes. Names of
// one family share its # HELP / # TYPE lines.
func family(name string) (pn, labels string) {
	base, rest, ok := strings.Cut(name, "{")
	if !ok {
		return promName(name), ""
	}
	return promName(base), strings.TrimSuffix(rest, "}")
}

// regSnapshot is a point-in-time view of a registry's instruments plus
// their help text, taken under the lock and rendered outside it. The
// cluster exporter (cluster.go) snapshots every member registry through
// the same path.
type regSnapshot struct {
	histNames, gaugeNames, counterNames []string
	hists                               map[string]*LatencyHistogram
	gauges                              map[string]*Gauge
	counters                            map[string]*Counter
	help                                map[string]string
}

func (r *Registry) snapshot() regSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := regSnapshot{
		histNames:    make([]string, 0, len(r.hists)),
		gaugeNames:   make([]string, 0, len(r.gauges)),
		counterNames: make([]string, 0, len(r.counters)),
		hists:        make(map[string]*LatencyHistogram, len(r.hists)),
		gauges:       make(map[string]*Gauge, len(r.gauges)),
		counters:     make(map[string]*Counter, len(r.counters)),
		help:         make(map[string]string, len(r.hists)+len(r.gauges)+len(r.counters)),
	}
	for n, h := range r.hists {
		s.histNames = append(s.histNames, n)
		s.hists[n] = h
		s.help[n] = r.helpForLocked(n)
	}
	for n, g := range r.gauges {
		s.gaugeNames = append(s.gaugeNames, n)
		s.gauges[n] = g
		s.help[n] = r.helpForLocked(n)
	}
	for n, c := range r.counters {
		s.counterNames = append(s.counterNames, n)
		s.counters[n] = c
		s.help[n] = r.helpForLocked(n)
	}
	sort.Strings(s.histNames)
	sort.Strings(s.gaugeNames)
	sort.Strings(s.counterNames)
	return s
}

// writeMeta emits the # HELP (when known) and # TYPE lines for a metric.
func writeMeta(w io.Writer, pn, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", pn, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", pn, typ)
	return err
}

// writeHistogramProm renders one histogram's sample lines. labels is
// either empty or a rendered label pair list without braces (e.g.
// `node="a1b2"`) that is joined with the le label on bucket lines.
func writeHistogramProm(w io.Writer, pn, labels string, h *LatencyHistogram) error {
	sep := ""
	if labels != "" {
		sep = labels + ","
	}
	cum := int64(0)
	for _, i := range h.NonEmptyBuckets() {
		cum += h.BucketCount(i)
		le := float64(BucketUpper(i)) / 1e9
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", pn, sep, formatLe(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", pn, sep, h.Count()); err != nil {
		return err
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", pn, suffix, float64(h.Sum())/1e9); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", pn, suffix, h.Count())
	return err
}

// writeSampleProm renders one gauge/counter sample line.
func writeSampleProm(w io.Writer, pn, labels string, v int64) error {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	_, err := fmt.Fprintf(w, "%s%s %d\n", pn, suffix, v)
	return err
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Latency histograms are emitted as native
// Prometheus histograms with second-valued cumulative le buckets (values
// are recorded in nanoseconds); gauges and counters as plain samples.
// Metrics with known descriptions (help.go, SetHelp) get # HELP lines.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.snapshot()
	// Names of one family sort next to each other; its metadata goes out
	// with the first.
	last := ""
	meta := func(name, typ string) (pn, labels string, err error) {
		pn, labels = family(name)
		if pn != last {
			last, err = pn, writeMeta(w, pn, s.help[name], typ)
		}
		return pn, labels, err
	}
	for _, name := range s.histNames {
		pn, labels, err := meta(name, "histogram")
		if err != nil {
			return err
		}
		if err := writeHistogramProm(w, pn, labels, s.hists[name]); err != nil {
			return err
		}
	}
	for _, name := range s.gaugeNames {
		pn, labels, err := meta(name, "gauge")
		if err != nil {
			return err
		}
		if err := writeSampleProm(w, pn, labels, s.gauges[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range s.counterNames {
		pn, labels, err := meta(name, "counter")
		if err != nil {
			return err
		}
		if err := writeSampleProm(w, pn, labels, s.counters[name].Value()); err != nil {
			return err
		}
	}
	return nil
}

// formatLe renders a bucket bound compactly (Prometheus just needs a
// parseable float; trailing zeros add noise at 488 potential buckets).
func formatLe(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}
