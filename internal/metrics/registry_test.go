package metrics

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestRegistryIdentity: the registry must hand back the same instrument
// for the same name, and distinct ones for distinct names.
func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Histogram("a") != r.Histogram("a") {
		t.Fatal("same-name histogram not shared")
	}
	if r.Histogram("a") == r.Histogram("b") {
		t.Fatal("distinct names share a histogram")
	}
	if r.Gauge("g") != r.Gauge("g") || r.Counter("c") != r.Counter("c") {
		t.Fatal("gauge/counter identity broken")
	}
	r.Histogram("z")
	if got := r.HistogramNames(); len(got) != 3 || got[0] != "a" || got[2] != "z" {
		t.Fatalf("HistogramNames = %v", got)
	}
}

// TestPromName: sanitization must map the full forbidden set and guard
// leading digits.
func TestPromName(t *testing.T) {
	cases := map[string]string{
		"sr3_phase_fetch_ns": "sr3_phase_fetch_ns",
		"a.b-c/d e":          "a_b_c_d_e",
		"9lives":             "_9lives",
		"ok:scoped":          "ok:scoped",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheus checks the text exposition end to end: TYPE
// headers, cumulative le buckets in ascending order, +Inf closing the
// histogram, sum/count in seconds, and gauge/counter samples.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sr3_phase_fetch_ns")
	h.Record(1_000_000)     // 1ms
	h.Record(2_000_000)     // 2ms
	h.Record(1_000_000_000) // 1s
	r.Gauge("sr3_live_nodes").Set(24)
	r.Counter("sr3_phase_fetch_total").Add(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE sr3_phase_fetch_ns histogram\n",
		"sr3_phase_fetch_ns_bucket{le=\"+Inf\"} 3\n",
		"sr3_phase_fetch_ns_count 3\n",
		"# TYPE sr3_live_nodes gauge\nsr3_live_nodes 24\n",
		"# TYPE sr3_phase_fetch_total counter\nsr3_phase_fetch_total 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// The histogram sum is in seconds: 1ms + 2ms + 1s = 1.003s.
	if !strings.Contains(out, "sr3_phase_fetch_ns_sum 1.003\n") {
		t.Fatalf("wrong sum line:\n%s", out)
	}

	// le bounds must be ascending and cumulative counts non-decreasing.
	var lastLe float64
	var lastCum int64
	seen := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "sr3_phase_fetch_ns_bucket{le=\"") || strings.Contains(line, "+Inf") {
			continue
		}
		rest := strings.TrimPrefix(line, "sr3_phase_fetch_ns_bucket{le=\"")
		q := strings.Index(rest, "\"")
		le, err := strconv.ParseFloat(rest[:q], 64)
		if err != nil {
			t.Fatalf("unparseable le in %q: %v", line, err)
		}
		cum, err := strconv.ParseInt(strings.TrimSpace(rest[q+2:]), 10, 64)
		if err != nil {
			t.Fatalf("unparseable count in %q: %v", line, err)
		}
		if seen > 0 && (le <= lastLe || cum < lastCum) {
			t.Fatalf("buckets not cumulative/ascending at %q (prev le %g cum %d)", line, lastLe, lastCum)
		}
		lastLe, lastCum = le, cum
		seen++
	}
	if seen == 0 {
		t.Fatalf("no finite le buckets emitted:\n%s", out)
	}
	if lastCum != 3 {
		t.Fatalf("last finite cumulative = %d, want 3", lastCum)
	}
}

// TestWritePrometheusEmpty: an empty registry renders to nothing and no
// error.
func TestWritePrometheusEmpty(t *testing.T) {
	var b strings.Builder
	if err := NewRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty registry produced output: %q", b.String())
	}
}

// TestInlineLabelsShareOneFamily: a name carrying label pairs is a sample
// of its family — one # HELP / # TYPE for the family, the pairs rendered
// as written, and in a cluster scrape behind the member's node label.
func TestInlineLabelsShareOneFamily(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge(`sr3_recovery_held_bytes{version="cur"}`).Set(7)
	reg.Gauge(`sr3_recovery_held_bytes{version="prev"}`).Set(3)
	reg.Gauge("sr3_recovery_held_bytes_other").Set(1)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		"sr3_recovery_held_bytes{version=\"cur\"} 7\n",
		"sr3_recovery_held_bytes{version=\"prev\"} 3\n",
		"sr3_recovery_held_bytes_other 1\n",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("scrape lacks %q:\n%s", line, out)
		}
	}
	if n := strings.Count(out, "# TYPE sr3_recovery_held_bytes gauge\n"); n != 1 {
		t.Fatalf("family metadata written %d times, want once:\n%s", n, out)
	}
	if !strings.Contains(out, "# HELP sr3_recovery_held_bytes ") {
		t.Fatalf("labelled samples lost their family's help text:\n%s", out)
	}

	cr := NewClusterRegistry()
	cr.Register("n1", reg)
	buf.Reset()
	if err := cr.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "sr3_recovery_held_bytes{node=\"n1\",version=\"prev\"} 3\n") ||
		strings.Count(out, "# TYPE sr3_recovery_held_bytes gauge\n") != 1 {
		t.Fatalf("cluster scrape of a labelled family:\n%s", out)
	}
}
