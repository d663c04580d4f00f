package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain implements `benchmark compare A.json B.json`: for every
// (end-to-end metric, workload) it prints A's median over its untraced
// runs as the base, B's median, their ratio, the wider of the two
// spreads and a verdict against the bound in BENCHMARK.json; then the
// same without a verdict for every per-layer metric of the traced runs.
// It exits non-zero when a cell regressed or B failed a larger share of
// its operations.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json  (files written by -all -out)")
		return 2
	}
	var bf benchmarkFile
	if err := readJSON("BENCHMARK.json", &bf); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var a, b resultSet
	if err := readJSON(args[0], &a); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	if err := readJSON(args[1], &b); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	bad := false
	fmt.Printf("%-14s %-18s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "base(A)", "B", "B/A", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range bf.EndToEnd {
			av, bv := cell(a, w.Name, d.Name, false), cell(b, w.Name, d.Name, false)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			ma, mb := median(av), median(bv)
			spread := max(iqrShare(av), iqrShare(bv))
			v := verdict(ma, mb, spread, d.Bound, d.Better == "higher")
			if v == "regressed" {
				bad = true
			}
			fmt.Printf("%-14s %-18s %14.4f %14.4f %8.3f %8.3f %7.2f  %s\n", w.Name, d.Name, ma, mb, mb/ma, spread, d.Bound, v)
		}
		// Per-layer metrics carry no bound: ratio and spread, no verdict.
		for _, d := range perLayer {
			av, bv := cell(a, w.Name, d.Name, true), cell(b, w.Name, d.Name, true)
			if ma := median(av); len(av) > 0 && len(bv) > 0 && ma != 0 {
				fmt.Printf("%-14s %-30s %14.4f %14.4f %8.3f %8.3f\n", w.Name, d.Name, ma, median(bv), median(bv)/ma, max(iqrShare(av), iqrShare(bv)))
			}
		}
		fa, fb := failedShare(a, w.Name), failedShare(b, w.Name)
		if fb > fa {
			bad = true
			fmt.Printf("%-14s failed share rose: %.6f -> %.6f\n", w.Name, fa, fb)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// verdict classifies B against A. worse is how far B's median moved in
// the bad direction as a share of A's.
func verdict(a, b, spread, bound float64, higherIsBetter bool) string {
	if a == 0 {
		return "unresolved"
	}
	worse := (b - a) / a
	if higherIsBetter {
		worse = -worse
	}
	switch {
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	case worse < -bound:
		return "improved"
	default:
		return "unchanged"
	}
}

// cell collects a metric's values over the traced or the untraced runs of
// a workload.
func cell(s resultSet, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Traced == traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

func failedShare(s resultSet, workload string) float64 {
	var failed, attempted int64
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
			if !r.Correct && r.Failed == 0 {
				failed++ // a run that broke without counting a tuple still failed
			}
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, by the method of Python's statistics.quantiles
// (exclusive); 0 with fewer than two values.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	if m := median(s); m != 0 {
		return (q(0.75) - q(0.25)) / m
	}
	return 0
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
