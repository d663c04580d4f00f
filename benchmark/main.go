// Command benchmark is the repeatable end-to-end and per-layer benchmark
// of the real multi-process SR3 cluster. One process launches three
// benchnode daemons on loopback, drives a named workload through them,
// checks the output against a reference computation and prints every
// metric by name and unit.
//
//	bash benchmark/run.sh -all -seed 1 -out results.json   every workload, untraced then traced
//	bash benchmark/run.sh -workload kill-16m -trace 1      one run
//	bash benchmark/run.sh compare A.json B.json            verdict per (metric, workload)
//
// Run from the repository root; run.sh builds this program and benchnode
// into .bench_build/ first. Invoked with -workload and without -all it
// speaks the driver protocol: the last line of standard output is one
// JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark writes goes, relative to
// the checkout root it is run from.
const buildDir = ".bench_build"

// runWallCap ends a run that has not finished on its own; the driver
// allows 180 s per invocation.
const runWallCap = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: edge-saturate, paced-small, protect-16m, kill-16m")
	all := fs.Bool("all", false, "run every workload, untraced then traced, and print every metric")
	seed := fs.Int64("seed", 1, "workload seed; run i of -reps uses seed+i")
	seconds := fs.Int("seconds", 20, "length of the measurement window")
	trace := fs.Int("trace", 0, "1: span recorder on, per-layer metrics and layer replay")
	reps := fs.Int("reps", 1, "with -all: runs per workload")
	out := fs.String("out", "", "with -all: write every run's result here as JSON")
	bin := fs.String("bin", filepath.Join(buildDir, "bin", "benchnode"), "benchnode binary (run.sh builds it)")
	quick := fs.Bool("quick", false, "smoke: one set-up, 1.5 s warm-up; numbers are not comparable")
	_ = fs.Parse(os.Args[1:])
	if *seconds < 1 || (*name == "") == !*all {
		fmt.Fprintln(os.Stderr, "benchmark: give -workload NAME or -all (see -h)")
		os.Exit(2)
	}

	// Children are reaped on every way out: normal return and panic by
	// run's deferred stop, signals here, the wall cap below.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopLiveCluster()
		os.Exit(130)
	}()

	mk := func(w workload, seed int64, traced bool) runResult {
		dir := filepath.Join(buildDir, "runs", fmt.Sprintf("%s-s%d-t%d-%d", w.Name, seed, b2i(traced), time.Now().UnixNano()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		o := runOpts{w: w, seed: seed, window: time.Duration(*seconds) * time.Second, trace: traced,
			bin: *bin, dir: dir, warm: warmup, setups: setups}
		if *quick {
			o.warm, o.setups = 1500*time.Millisecond, 1
		}
		watchdog := time.AfterFunc(runWallCap, func() {
			fmt.Fprintf(os.Stderr, "benchmark: run exceeded %v, stopping\n", runWallCap)
			stopLiveCluster()
			os.Exit(1)
		})
		defer watchdog.Stop()
		res := run(o)
		if !traced && res.Metrics["cpu_us_per_tuple"] > 0 {
			_ = writeJSON(baselinePath(w.Name), res.Metrics["cpu_us_per_tuple"])
		}
		_ = writeJSON(filepath.Join(dir, "result.json"), res)
		return res
	}

	if !*all {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		res := mk(w, *seed, *trace != 0)
		report(os.Stderr, res)
		defs := endToEnd
		if res.Traced {
			defs = perLayer
		}
		if err := json.NewEncoder(os.Stdout).Encode(driverLine(res, defs)); err != nil {
			os.Exit(1)
		}
		return
	}

	set := resultSet{Env: environment(*seconds)}
	for rep := 0; rep < *reps; rep++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res := mk(w, *seed+int64(rep), traced)
				report(os.Stdout, res)
				set.Runs = append(set.Runs, res)
			}
		}
	}
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	for _, r := range set.Runs {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// resultSet is what -all -out writes and compare reads.
type resultSet struct {
	Env  map[string]any `json:"env"`
	Runs []runResult    `json:"runs"`
}

func environment(seconds int) map[string]any {
	return map[string]any{
		"nproc": runtime.NumCPU(), "go": runtime.Version(), "seconds": seconds,
		"warmup_s": warmup.Seconds(), "setups": setups,
		"heartbeat": heartbeat.String(), "dead_after": deadAfter.String(), "repair": repair.String(),
		"workloads": workloads,
	}
}

// driverLine is the one-object result the driver reads: every metric of
// defs, whether or not this workload could measure it.
func driverLine(r runResult, defs []metricDef) map[string]any {
	metrics := map[string]any{}
	for _, d := range defs {
		metrics[d.Name] = map[string]any{"value": r.Metrics[d.Name], "unit": d.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return map[string]any{"correct": r.Correct, "attempted": attempted, "failed": r.Failed, "metrics": metrics}
}

// report prints one run for people: verdict, then every metric it has.
func report(w *os.File, r runResult) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s seed=%d %gs %s: correct=%v emitted=%d failed=%d (missing=%d duplicated=%d state_mismatch=%d) drained=%v\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Correct, r.Attempted, r.Failed, r.Missing, r.Duplicated, r.StateMismatch, r.Drained)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "   PROBLEM:", p)
	}
	if r.LogTail != "" {
		fmt.Fprintln(w, r.LogTail)
	}
	for _, d := range catalog() {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "   %-32s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	var extra []string
	for k := range r.Metrics {
		if !known(k) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "   %-32s %14.4f (not in catalog)\n", k, r.Metrics[k])
	}
	fmt.Fprintf(w, "   run directory: %s\n", r.RunDir)
}

func known(name string) bool {
	for _, d := range catalog() {
		if d.Name == name {
			return true
		}
	}
	return false
}
