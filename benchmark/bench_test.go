package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sr3/internal/metrics"
)

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the names the
// harness emits in step: same metrics, units, directions and workloads.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the catalog %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, g.Name, g.Bound != nil)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, bf.Workloads[i].Name, w.Name)
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bf.Paths)
	}
	if want := []string{"bash", "benchmark/run.sh"}; strings.Join(bf.Command, " ") != strings.Join(want, " ") {
		t.Errorf("command = %v", bf.Command)
	}
	// Every run of the driver's budget: 4 + 22 per workload, each set-ups
	// + warm-up + window + tail (+ ~1 s of process churn), in 3420 s.
	runs := 4 + 22*len(workloads)
	perRun := warmup.Seconds() + float64(bf.RunSeconds) + spoutTail.Seconds() + 2
	if total := float64(runs) * perRun; total > 3420-300 {
		t.Errorf("%d runs x %.1f s = %.0f s leaves under 300 s of the driver's 3420 s for builds and drains", runs, perRun, total)
	}
}

// TestDriverLineCarriesEveryMetric: the driver's object lists every
// metric of the mode, measured or not, and never attempted < 1.
func TestDriverLineCarriesEveryMetric(t *testing.T) {
	line := driverLine(runResult{Metrics: map[string]float64{"setup_s": 0.5}}, endToEnd)
	ms := line["metrics"].(map[string]any)
	if len(ms) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(ms), len(endToEnd))
	}
	if line["attempted"].(int64) < 1 {
		t.Fatal("attempted < 1")
	}
	if v := ms["setup_s"].(map[string]any); v["value"].(float64) != 0.5 || v["unit"] != "s" {
		t.Fatalf("setup_s = %v", v)
	}
}

// TestParseScrapeRebuildsHistograms: a registry written as Prometheus
// text and parsed back gives the same window quantiles as the registry.
func TestParseScrapeRebuildsHistograms(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("sr3_cluster_edge_hop_ns_a__b")
	reg.Counter("sr3_cluster_edge_a__b_frames_total").Add(3)
	var first strings.Builder
	for v := int64(1); v <= 1000; v++ {
		h.Record(v * 1000)
	}
	if err := reg.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	for v := int64(1); v <= 1000; v++ {
		h.Record(v * 1000000)
	}
	reg.Counter("sr3_cluster_edge_a__b_frames_total").Add(4)
	var second strings.Builder
	if err := reg.WritePrometheus(&second); err != nil {
		t.Fatal(err)
	}
	a, b := parseScrape(first.String()), parseScrape(second.String())
	if d := b.delta(a, "sr3_cluster_edge_a__b_frames_total"); d != 4 {
		t.Fatalf("counter delta %v, want 4", d)
	}
	win := b.hist(a, "sr3_cluster_edge_hop_ns_a__b")
	if win.Count != 1000 {
		t.Fatalf("window count %d, want 1000", win.Count)
	}
	if p50 := win.Quantile(0.5); p50 < 450e6 || p50 > 550e6 {
		t.Fatalf("window p50 = %.0f ns, want about 500e6", p50)
	}
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		a, b, spread, bound float64
		higher              bool
		want                string
	}{
		{100, 105, 0.02, 0.10, false, "unchanged"},
		{100, 120, 0.02, 0.10, false, "regressed"},
		{100, 80, 0.02, 0.10, false, "improved"},
		{100, 80, 0.02, 0.10, true, "regressed"},
		{100, 120, 0.02, 0.10, true, "improved"},
		{100, 120, 0.15, 0.10, false, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.spread, c.bound, c.higher); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c, got, c.want)
		}
	}
	// Python: statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

// TestQuickSmoke drives a real three-process cluster through one paced
// and one kill run in -quick shape (one set-up, 1.5 s warm-up, 3 s
// window). Skipped under -short.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches a process cluster")
	}
	bin := filepath.Join(t.TempDir(), "benchnode")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/benchnode").CombinedOutput(); err != nil {
		t.Fatalf("build benchnode: %v\n%s", err, out)
	}
	for _, name := range []string{"paced-small", "kill-16m"} {
		w, _ := findWorkload(name)
		res := run(runOpts{w: w, seed: 1, window: 3 * time.Second, trace: name == "kill-16m",
			bin: bin, dir: t.TempDir(), warm: 1500 * time.Millisecond, setups: 1})
		if !res.Correct || !res.Drained || res.Attempted == 0 {
			t.Errorf("%s: correct=%v drained=%v emitted=%d failed=%d problems=%v\n%s",
				name, res.Correct, res.Drained, res.Attempted, res.Failed, res.Problems, res.LogTail)
		}
		for _, d := range endToEnd {
			if res.Metrics[d.Name] <= 0 {
				t.Errorf("%s: %s = %v", name, d.Name, res.Metrics[d.Name])
			}
		}
		if name == "kill-16m" {
			for _, m := range []string{"detect_ms", "recover_ms", "output_stall_ms", "trace.selfheal_ms", "state.snapshot_ms"} {
				if res.Metrics[m] <= 0 {
					t.Errorf("%s: %s = %v", name, m, res.Metrics[m])
				}
			}
			if _, err := os.Stat(filepath.Join(res.RunDir, "spans.jsonl")); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}
