package bench

import (
	"os"
	"testing"
	"time"

	"sr3/internal/obs"
)

// artifactChecks holds, per row of Artifacts, what the table tests assert
// beyond the row's own validator: how many cells the tiny preset has, the
// floor on committed cells, and artifact-specific coverage.
var artifactChecks = map[string]struct {
	tinyCells    func() int
	cells        func(Report) int
	minCommitted int
	committed    func(t *testing.T, r Report)
}{
	"matrix": {
		tinyCells:    func() int { s, _ := MatrixPreset("tiny"); return len(s) },
		cells:        func(r Report) int { return len(r.(*MatrixReport).Cells) },
		minCommitted: 12,
		committed: func(t *testing.T, r Report) {
			scenarios := map[string]bool{}
			for _, c := range r.(*MatrixReport).Cells {
				scenarios[c.Scenario] = true
			}
			for _, want := range []string{ScenarioCrash, ScenarioCrash2, ScenarioPartition,
				ScenarioSlowNode, ScenarioFlakyLink, ScenarioCrashIngest} {
				if !scenarios[want] {
					t.Errorf("committed matrix missing scenario %q", want)
				}
			}
		},
	},
	"overload": {
		tinyCells:    func() int { s, _ := OverloadPreset("tiny"); return len(s) },
		cells:        func(r Report) int { return len(r.(*OverloadReport).Cells) },
		minCommitted: 7,
	},
}

// TestTinyPresets runs every experiment's CI smoke subset for real, down
// the same artifact path sr3bench takes: sweep, marshal, validate. The
// validators carry the acceptance gates (no failed cell, exactly-once,
// no spurious kill, exact ledger, bounded queues, retry cap), so a row
// passes only if its whole report does. The experiments that write no
// artifact — trace and self-heal — ride along as rows of their own.
func TestTinyPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every tiny sweep")
	}
	for _, a := range Artifacts {
		a := a
		t.Run(a.ID, func(t *testing.T) {
			check, ok := artifactChecks[a.ID]
			if !ok {
				t.Fatalf("artifact %q has no row in artifactChecks", a.ID)
			}
			_, parsed, err := a.Run("tiny")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := check.cells(parsed), check.tinyCells(); got != want {
				t.Fatalf("round-trip cells = %d, want %d", got, want)
			}
			if _, _, err := a.Run("no-such-preset"); err == nil {
				t.Fatal("unknown preset accepted")
			}
		})
	}
	t.Run("trace", func(t *testing.T) {
		// extractBreakdown fails the cell when the selfheal root span is
		// missing, so a returned row has one. The tracer runs on a virtual
		// clock, so the trace's shape does not depend on the scheduler. Its
		// phase totals may still sum past the MTTR — star fetches run
		// concurrently and a merge counts inside its fetch too — so what
		// must hold is that every span lies inside its parent.
		collector := obs.NewCollector()
		row, err := traceCell(MechSR3Star, collector, nil, obs.StepClock(time.Unix(1000, 0), time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if row.TraceID == 0 || row.Spans == 0 || row.MTTRMs <= 0 {
			t.Fatalf("implausible breakdown: %+v", row)
		}
		for _, p := range []string{obs.PhaseDetect, obs.PhaseEnqueue, obs.PhasePlan, obs.PhaseFetch, obs.PhaseMerge, obs.PhaseReplay, obs.PhaseReprotect} {
			if row.PhaseMs[p] <= 0 || row.PhaseMs[p] > row.MTTRMs {
				t.Fatalf("phase %q lasts %.2fms of a %.2fms heal: %+v", p, row.PhaseMs[p], row.MTTRMs, row)
			}
		}
		spans := collector.Trace(row.TraceID)
		byID := make(map[uint64]obs.SpanRecord, len(spans))
		for _, s := range spans {
			byID[s.Span] = s
		}
		for _, s := range spans {
			if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || s.Start < p.Start || s.End > p.End) {
				t.Fatalf("span %d (%s) is not inside its parent %d", s.Span, s.Phase, s.Parent)
			}
		}
	})
	t.Run("self-heal", func(t *testing.T) {
		stats, err := selfHealCell(selfHealSetting{heartbeat: 10 * time.Millisecond, threshold: 8}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Samples() != 1 || stats.Failures != 0 {
			t.Fatalf("healed = %d, failures = %d, want 1 and 0", stats.Samples(), stats.Failures)
		}
	})
}

// TestCommittedArtifacts takes every committed BENCH_*.json through its
// row's validator — which embeds the acceptance gates — so a stale or
// hand-edited artifact fails CI.
func TestCommittedArtifacts(t *testing.T) {
	for _, a := range Artifacts {
		a := a
		t.Run(a.ID, func(t *testing.T) {
			check := artifactChecks[a.ID]
			blob, err := os.ReadFile("../../" + a.Out)
			if err != nil {
				t.Fatalf("committed artifact: %v", err)
			}
			report, err := a.Validate(blob)
			if err != nil {
				t.Fatal(err)
			}
			if n := check.cells(report); n < check.minCommitted {
				t.Fatalf("committed %s has %d cells, want >= %d", a.Out, n, check.minCommitted)
			}
			if check.committed != nil {
				check.committed(t, report)
			}
		})
	}
}
