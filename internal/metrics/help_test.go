package metrics

import (
	"strings"
	"testing"
)

// TestHelpLines: cataloged metrics get # HELP, ad-hoc names do not, and
// SetHelp attaches text to any name with exposition-format escaping.
func TestHelpLines(t *testing.T) {
	r := NewRegistry()
	r.Counter("sr3_dht_routes_total").Inc()
	r.Counter("adhoc_total").Inc()
	r.Histogram("sr3_stream_task_wordcount_counter_0_proc_ns").Record(50)
	r.SetHelp("adhoc_total", "line1\nline2 with \\backslash")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	if !strings.Contains(out, "# HELP sr3_dht_routes_total Routed requests originated by this node.\n") {
		t.Fatalf("catalog help missing:\n%s", out)
	}
	// Generated per-task family resolved through prefix+suffix rules.
	if !strings.Contains(out, "# HELP sr3_stream_task_wordcount_counter_0_proc_ns Per-tuple processing latency of this task in nanoseconds, each tuple counted at the mean of the run it executed in.\n") {
		t.Fatalf("rule-based help missing:\n%s", out)
	}
	// SetHelp body escaped: newline -> \n, backslash -> \\.
	if !strings.Contains(out, `# HELP adhoc_total line1\nline2 with \\backslash`+"\n") {
		t.Fatalf("SetHelp escaping wrong:\n%s", out)
	}
	// Every HELP line must immediately precede its TYPE line.
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "# HELP ") {
			name := strings.Fields(l)[2]
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Fatalf("HELP for %s not followed by its TYPE:\n%s", name, out)
			}
		}
	}
}

// TestCatalogHelp: exact names beat rules; unknown names resolve empty.
func TestCatalogHelp(t *testing.T) {
	if catalogHelp("sr3_net_calls_total") == "" {
		t.Fatal("exact catalog entry missing")
	}
	if catalogHelp("sr3_dht_msg_dht_route_total") == "" {
		t.Fatal("rule entry missing")
	}
	if catalogHelp("sr3_phase_fetch_ns") == "" {
		t.Fatal("phase rule missing")
	}
	if catalogHelp("sr3_node_up") == "" || catalogHelp("sr3_node_incarnation") == "" {
		t.Fatal("node liveness entries missing")
	}
	for _, name := range []string{
		"sr3_cluster_edge_hop_ns_count__sink",
		"sr3_cluster_edge_lag_ns_count__sink",
		"sr3_cluster_edge_count__sink_frames_total",
		"sr3_cluster_edge_count__sink_tuples_total",
	} {
		if catalogHelp(name) == "" {
			t.Fatalf("edge rule missing for %s", name)
		}
	}
	if catalogHelp("totally_unknown") != "" {
		t.Fatal("unknown name resolved non-empty")
	}
}

// TestGaugeSetMax: the high-water helper only ratchets upward.
func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatalf("SetMax went down: %d", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("SetMax did not raise: %d", g.Value())
	}
}
