// Command sr3bench regenerates the tables and figures of the SR3 paper's
// evaluation (§5) and prints their data series.
//
// Usage:
//
//	sr3bench             # run everything
//	sr3bench -fig 8a     # one figure (8a 8b 8c 9a 9b 9c 9d 10a 10b 10c
//	                     # 11a 11b 11c 12a 12b 12c fp4s table1)
//	sr3bench -list       # list available experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sr3/internal/bench"
	"sr3/internal/metrics"
	"sr3/internal/obs"
)

type experiment struct {
	id   string
	desc string
	run  func() (string, error)
}

func figExp(id, desc string, fn func() (bench.Figure, error)) experiment {
	return experiment{id: id, desc: desc, run: func() (string, error) {
		fig, err := fn()
		if err != nil {
			return "", err
		}
		return fig.Format(), nil
	}}
}

func experiments() []experiment {
	exps := []experiment{
		figExp("8a", "recovery time vs state size, unconstrained", bench.Fig8a),
		figExp("8b", "recovery time vs state size, 100 Mb/s constraint", bench.Fig8b),
		figExp("8c", "state save time vs state size", bench.Fig8c),
		figExp("9a", "star recovery vs fan-out bit", bench.Fig9a),
		figExp("9b", "line recovery vs path length", bench.Fig9b),
		figExp("9c", "tree recovery vs branch depth", bench.Fig9c),
		figExp("9d", "tree recovery vs tree fan-out bit", bench.Fig9d),
		figExp("10a", "star recovery vs simultaneous failures", bench.Fig10a),
		figExp("10b", "line recovery vs simultaneous failures", bench.Fig10b),
		figExp("10c", "tree recovery vs simultaneous failures", bench.Fig10c),
		figExp("11a", "shard distribution, 500 apps / 5000 nodes", bench.Fig11a),
		figExp("11b", "shard distribution, 1000 apps / 5000 nodes", bench.Fig11b),
		figExp("11c", "normal percentiles of shards per node", bench.Fig11c),
		figExp("12a", "CPU usage during recovery", bench.Fig12a),
		figExp("12b", "memory usage during recovery", bench.Fig12b),
		figExp("12c", "overlay maintenance traffic", bench.Fig12c),
		{id: "fp4s", desc: "FP4S vs SR3 comparison (§2.3)", run: runFP4S},
		figExp("ablation-speculation", "straggler hedging (§6 future work)", bench.AblationSpeculation),
		figExp("ablation-speculation-linetree", "line/tree straggler hedging", bench.AblationSpeculationLineTree),
		{id: "chaos", desc: "failover ladder under seeded fault injection", run: bench.ChaosReport},
		{id: "trace", desc: "per-phase recovery breakdown from one distributed trace per mechanism", run: runTrace},
		{id: "self-heal", desc: "detection latency and MTTR vs heartbeat interval and φ threshold", run: bench.SelfHealReport},
		figExp("ablation-flowpenalty", "star flow-penalty contribution", bench.AblationFlowPenalty),
		figExp("ablation-selection", "mechanism choice per environment (§3.7)", bench.AblationMechanismDefaults),
		{id: "steady", desc: "steady-state instrumentation overhead and one-scrape cluster view", run: runSteady},
	}
	// One row of bench.Artifacts = the committed sweep plus its CI smoke
	// subset, which writes a separate untracked file so a smoke run never
	// clobbers the committed numbers.
	for _, a := range bench.Artifacts {
		a := a
		exps = append(exps,
			experiment{id: a.ID, desc: a.Desc + " (writes " + a.Out + ")",
				run: func() (string, error) { return runPreset(a, "full", a.Out) }},
			experiment{id: a.ID + "-tiny", desc: "CI smoke subset of " + a.ID + " (writes " + a.TinyOut + ")",
				run: func() (string, error) { return runPreset(a, "tiny", a.TinyOut) }})
	}
	return append(exps,
		experiment{id: "matrix-report", desc: "render the committed artifacts as markdown into " + experimentsDoc + " (-plot adds SVG figures)", run: runMatrixReport},
		experiment{id: "table1", desc: "recovery approach overview (Table 1)", run: func() (string, error) {
			return bench.FormatTable1(), nil
		}},
		experiment{id: "summary", desc: "load-balance headline stats (§5.3)", run: runSummary},
	)
}

func runFP4S() (string, error) {
	cmp, err := bench.FP4SComparison()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "FP4S vs SR3 at %d MB state (unconstrained):\n", cmp.StateMB)
	fmt.Fprintf(&b, "  FP4S (26,16)-RS recovery: %8.2f s (tolerates %d losses, storage x%.3f)\n",
		cmp.FP4SRecoverySec, cmp.ToleratedLosses, cmp.StorageFactor)
	fmt.Fprintf(&b, "  SR3 star recovery:        %8.2f s (replication x%d)\n",
		cmp.StarRecoverySec, cmp.SR3ReplicaFactor)
	fmt.Fprintf(&b, "  extra erasure-codec time: %8.2f s (paper: ~10 s)\n", cmp.ExtraCodecSec)
	return b.String(), nil
}

func runTrace() (string, error) {
	report, err := bench.TraceSweep(metricsReg)
	if err != nil {
		return "", err
	}
	return report.Format(), nil
}

// runPreset sweeps one preset of an artifact experiment. Artifact.Run
// validates before anything is written: a sweep that fails its
// acceptance gates is an error, not an artifact.
func runPreset(a bench.Artifact, preset, out string) (string, error) {
	blob, report, err := a.Run(preset)
	if err != nil {
		return "", err
	}
	return writeArtifact(out, blob, report.Format())
}

// writeArtifact is the last step of the artifact path: the marshalled
// (and, where there are gates, validated) blob goes to disk and the
// report's table to the terminal.
func writeArtifact(out string, blob []byte, table string) (string, error) {
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return "", err
	}
	return table + "wrote " + out + "\n", nil
}

// experimentsDoc is where matrix-report splices its markdown tables,
// between begin/end marker comments (appended on first run).
const experimentsDoc = "EXPERIMENTS.md"

// plotSVG is set by the -plot flag: matrix-report also renders the
// committed artifacts that have a figure as SVG and references them in
// EXPERIMENTS.md.
var plotSVG bool

// runMatrixReport re-validates every committed artifact and splices its
// markdown table (and, with -plot, its figure) into EXPERIMENTS.md.
func runMatrixReport() (string, error) {
	docBytes, err := os.ReadFile(experimentsDoc)
	if err != nil {
		return "", err
	}
	doc := string(docBytes)
	var did []string
	for _, a := range bench.Artifacts {
		blob, err := os.ReadFile(a.Out)
		if err != nil {
			continue
		}
		report, err := a.Validate(blob)
		if err != nil {
			return "", err
		}
		figure := ""
		if plotSVG && a.Plot != nil {
			svg, err := a.Plot(report)
			if err != nil {
				return "", err
			}
			if err := os.WriteFile(a.PlotOut, svg, 0o644); err != nil {
				return "", err
			}
			figure = fmt.Sprintf("![%s](%s)\n\n", a.PlotAlt, a.PlotOut)
			did = append(did, a.PlotOut)
		}
		doc = bench.SpliceMarked(doc,
			"<!-- "+a.ID+"-report:begin -->", "<!-- "+a.ID+"-report:end -->",
			fmt.Sprintf("\nRendered from the committed `%s` by `sr3bench -fig matrix-report`.\n\n%s%s\n", a.Out, figure, report.Markdown()))
		did = append(did, a.Out)
	}
	if len(did) == 0 {
		return "", fmt.Errorf("matrix-report: no committed artifact found (run the artifact experiments first, see -list)")
	}
	if err := os.WriteFile(experimentsDoc, []byte(doc), 0o644); err != nil {
		return "", err
	}
	return fmt.Sprintf("rendered %s into %s\n", strings.Join(did, ", "), experimentsDoc), nil
}

func runSummary() (string, error) {
	var b strings.Builder
	for _, apps := range []int{500, 1000} {
		s, err := bench.Fig11Summary(apps)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%4d apps on 5000 nodes: mean %.1f shards/node, max %.0f, %.1f%% of nodes < 50 shards, %.1f%% < 100\n",
			s.Apps, s.Mean, s.MaxShards, 100*s.Fraction50, 100*s.Fraction100)
	}
	return b.String(), nil
}

func runSteady() (string, error) {
	rep, err := bench.SteadyState(bench.SteadyConfig{Cluster: clusterReg})
	if err != nil {
		return "", err
	}
	return rep.Format(), nil
}

// clusterReg and metricsReg are non-nil when -metrics is set: experiments
// that support it register their registries (trace writes per-phase
// histograms into metricsReg, steady folds runtime/ring/recovery
// registries into clusterReg), and the whole cluster registry is served
// as one labeled Prometheus scrape for the run's duration.
var (
	clusterReg *metrics.ClusterRegistry
	metricsReg *metrics.Registry
)

func main() {
	figFlag := flag.String("fig", "", "experiment id to run (default: all)")
	listFlag := flag.Bool("list", false, "list experiments")
	metricsFlag := flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (e.g. :9090) for the run")
	holdFlag := flag.Duration("hold", 0, "keep the -metrics server up this long after the experiments finish (for scraping)")
	flag.BoolVar(&plotSVG, "plot", false, "with -fig matrix-report, also render the committed artifacts as SVG figures (BENCH_matrix.svg, BENCH_overload.svg) referenced from "+experimentsDoc)
	flag.Parse()
	var srv *obs.MetricsServer
	if *metricsFlag != "" {
		clusterReg = metrics.NewClusterRegistry()
		metricsReg = clusterReg.Node("bench")
		var err error
		srv, err = obs.ServeMetrics(*metricsFlag, clusterReg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sr3bench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("serving metrics on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}
	if err := run(*figFlag, *listFlag); err != nil {
		fmt.Fprintln(os.Stderr, "sr3bench:", err)
		os.Exit(1)
	}
	if srv != nil && *holdFlag > 0 {
		fmt.Printf("holding metrics server for %s\n", *holdFlag)
		time.Sleep(*holdFlag)
	}
}

func run(fig string, list bool) error {
	exps := experiments()
	if list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.id, e.desc)
		}
		return nil
	}
	matched := false
	for _, e := range exps {
		if fig != "" && e.id != fig {
			continue
		}
		matched = true
		out, err := e.run()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.id, err)
		}
		fmt.Printf("=== %s: %s ===\n%s\n", e.id, e.desc, out)
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q (try -list)", fig)
	}
	return nil
}
