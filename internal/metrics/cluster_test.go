package metrics

import (
	"strings"
	"testing"
)

// TestClusterRegistryMembership: Node creates on first use, Register
// attaches and replaces, and a replaced label renders once.
func TestClusterRegistryMembership(t *testing.T) {
	c := NewClusterRegistry()
	b := c.Node("b")
	if c.Node("b") != b {
		t.Fatal("Node not idempotent")
	}
	a := NewRegistry()
	c.Register("a", a)
	if c.Node("a") != a {
		t.Fatal("Register did not attach the given registry")
	}
	a2 := NewRegistry()
	c.Register("a", a2)
	if c.Node("a") != a2 {
		t.Fatal("re-Register did not replace")
	}
	a2.Counter("x_total").Inc()
	var out strings.Builder
	if err := c.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), `x_total{node="a"}`); got != 1 {
		t.Fatalf("re-Registered label rendered %d times, want once:\n%s", got, out.String())
	}
}

// TestClusterWritePrometheus: one scrape of a two-node cluster must
// carry node labels on every sample, and HELP/TYPE exactly once per
// family even when both members expose it.
func TestClusterWritePrometheus(t *testing.T) {
	c := NewClusterRegistry()
	n1 := c.Node("n1")
	n2 := c.Node("n2")
	n1.Counter("sr3_dht_routes_total").Add(5)
	n2.Counter("sr3_dht_routes_total").Add(7)
	n1.Gauge("sr3_dht_stored_keys").Set(3)
	n1.Histogram("sr3_dht_route_hops").Record(2)
	n2.Histogram("sr3_dht_route_hops").Record(4)

	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"sr3_dht_routes_total{node=\"n1\"} 5\n",
		"sr3_dht_routes_total{node=\"n2\"} 7\n",
		"sr3_dht_stored_keys{node=\"n1\"} 3\n",
		"sr3_dht_route_hops_bucket{node=\"n1\",le=\"+Inf\"} 1\n",
		"sr3_dht_route_hops_count{node=\"n2\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("cluster exposition missing %q:\n%s", want, out)
		}
	}
	for _, meta := range []string{
		"# TYPE sr3_dht_routes_total counter\n",
		"# TYPE sr3_dht_route_hops histogram\n",
		"# HELP sr3_dht_routes_total ",
	} {
		if strings.Count(out, meta) != 1 {
			t.Fatalf("metadata %q emitted %d times, want once:\n%s", meta, strings.Count(out, meta), out)
		}
	}
	// A family only one member exposes still renders (union semantics).
	if strings.Count(out, "sr3_dht_stored_keys{") != 1 {
		t.Fatalf("single-member family wrong:\n%s", out)
	}
}

// TestClusterLabelEscaping: node labels holding quotes, backslashes and
// newlines must be escaped per the text exposition format.
func TestClusterLabelEscaping(t *testing.T) {
	c := NewClusterRegistry()
	c.Node("we\"ird\\na\nme").Counter("x_total").Inc()
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `x_total{node="we\"ird\\na\nme"} 1` + "\n"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped label missing %q:\n%s", want, b.String())
	}
}

// TestClusterMerged: the roll-up must sum counters and gauges and merge
// histograms bucket-wise across members.
func TestClusterMerged(t *testing.T) {
	c := NewClusterRegistry()
	c.Node("a").Counter("c_total").Add(2)
	c.Node("b").Counter("c_total").Add(3)
	c.Node("a").Gauge("g").Set(10)
	c.Node("b").Gauge("g").Set(1)
	c.Node("a").Histogram("h_ns").Record(100)
	c.Node("b").Histogram("h_ns").Record(200)
	c.Node("b").Histogram("h_ns").Record(300)

	m := c.Merged()
	if got := m.Counter("c_total").Value(); got != 5 {
		t.Fatalf("merged counter = %d, want 5", got)
	}
	if got := m.Gauge("g").Value(); got != 11 {
		t.Fatalf("merged gauge = %d, want 11", got)
	}
	h := m.Histogram("h_ns")
	if h.Count() != 3 || h.Sum() != 600 {
		t.Fatalf("merged histogram count=%d sum=%d, want 3/600", h.Count(), h.Sum())
	}
}
