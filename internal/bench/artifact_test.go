package bench

import (
	"os"
	"strings"
	"testing"
	"time"
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
	"throughput": {
		tinyCells:    func() int { s, _ := ThroughputPreset("tiny"); return len(s) },
		cells:        func(r Report) int { return len(r.(*ThroughputReport).Cells) },
		minCommitted: 4,
	},
	"dataplane": {
		tinyCells:    func() int { s, _ := DataPlanePreset("tiny"); return len(s) },
		cells:        func(r Report) int { return len(r.(*DataPlaneReport).Cells) },
		minCommitted: 12,
		committed: func(t *testing.T, r Report) {
			// One cold recovery per cell could not resolve what it
			// reported: a committed cell is a median over repetitions.
			mechs := map[string]bool{}
			for _, c := range r.(*DataPlaneReport).Cells {
				mechs[c.Mechanism] = true
				if c.Reps < 5 {
					t.Errorf("committed cell %dMB/%s/c%d has %d repetitions, want >= 5", c.StateMB, c.Mechanism, c.Concurrency, c.Reps)
				}
			}
			if len(mechs) != 3 {
				t.Errorf("committed dataplane covers %v, want star, line and tree", mechs)
			}
		},
	},
}

// TestTinyPresets runs every experiment's CI smoke subset for real, down
// the same artifact path sr3bench takes: sweep, marshal, validate. The
// validators carry the acceptance gates (no failed cell, exactly-once,
// no spurious kill, exact ledger, bounded queues, retry cap, >= 3x wire
// speedup, state recovered byte-exact as raw chunk frames), so a row
// passes only if its whole report does. The
// experiments that write no artifact — trace, self-heal, chaos — ride
// along as rows of their own.
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
		// missing, so a returned row has one.
		row, err := traceCell(MechSR3Star, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range tracePhaseOrder {
			sum += row.PhaseMs[p]
		}
		if row.TraceID == 0 || row.Spans == 0 || row.MTTRMs <= 0 || sum <= 0 || sum > row.MTTRMs {
			t.Fatalf("implausible breakdown (phase sum %.2fms): %+v", sum, row)
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
	t.Run("chaos", func(t *testing.T) {
		// ChaosReport fails unless every mechanism reassembles the state
		// byte-identically under the fault plan.
		out, err := ChaosReport()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"\nstar ", "\nline ", "\ntree ", "aggregate: 3 recoveries"} {
			if !strings.Contains(out, want) {
				t.Fatalf("chaos report missing %q:\n%s", want, out)
			}
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
