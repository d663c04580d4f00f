package bench

import (
	"strings"
	"testing"
)

// TestOverloadCrashCellBoundedAndExact is the acceptance gate for the
// overload tier: at 2x sustained load with a crash mid-stream, recovery
// completes, the queue bound holds, accounting is exact and every
// admitted tuple is delivered exactly once.
func TestOverloadCrashCellBoundedAndExact(t *testing.T) {
	if testing.Short() {
		t.Skip("overload cell in -short mode")
	}
	cell, err := RunOverloadCell(OverloadCellSpec{Scenario: OverloadCrash, Load: "2x", Seconds: 0.4}, 9001)
	if err != nil {
		t.Fatalf("cell: %v", err)
	}
	if !cell.AccountingExact || cell.Offered != cell.Admitted+cell.Shed {
		t.Fatalf("accounting not exact: offered=%d admitted=%d shed=%d", cell.Offered, cell.Admitted, cell.Shed)
	}
	if cell.QueueHighWater > cell.QueueCap {
		t.Fatalf("queue bound violated: high=%d cap=%d", cell.QueueHighWater, cell.QueueCap)
	}
	if !cell.ExactlyOnceAdmitted {
		t.Fatalf("not exactly-once over admitted tuples: missing=%d state_exact=%v", cell.Missing, cell.StateExact)
	}
	if cell.RecoverMs <= 0 {
		t.Fatalf("recover_ms = %v, want > 0", cell.RecoverMs)
	}
}

// TestRetryStormPairCapsRetries: the budgeted storm cell must fund fewer
// failover rounds than the unbudgeted baseline and record suppression;
// the unbudgeted recovery must complete.
func TestRetryStormPairCapsRetries(t *testing.T) {
	base, err := RunOverloadCell(OverloadCellSpec{Scenario: OverloadRetryStorm, Budgeted: false}, 9002)
	if err != nil {
		t.Fatalf("unbudgeted: %v", err)
	}
	capped, err := RunOverloadCell(OverloadCellSpec{Scenario: OverloadRetryStorm, Budgeted: true}, 9002)
	if err != nil {
		t.Fatalf("budgeted: %v", err)
	}
	if !base.RecoverOK {
		t.Fatal("unbudgeted retry-storm recovery did not complete")
	}
	if base.RetryRounds < 2 {
		t.Fatalf("unbudgeted baseline funded only %d rounds; storm did not materialize", base.RetryRounds)
	}
	if capped.RetryRounds >= base.RetryRounds {
		t.Fatalf("budget did not cap retries: budgeted %d >= unbudgeted %d", capped.RetryRounds, base.RetryRounds)
	}
	if capped.RetrySuppressed == 0 {
		t.Fatal("budgeted cell suppressed nothing")
	}
}

// TestSpliceMarked covers both the bootstrap (no markers yet) and the
// replace path of the markdown splicer.
func TestSpliceMarked(t *testing.T) {
	const begin, end = "<!-- x:begin -->", "<!-- x:end -->"
	doc := SpliceMarked("# Doc\n", begin, end, "\nbody-1\n")
	if !strings.Contains(doc, begin) || !strings.Contains(doc, "body-1") {
		t.Fatalf("bootstrap splice missing section:\n%s", doc)
	}
	doc += "\ntrailing text\n"
	doc2 := SpliceMarked(doc, begin, end, "\nbody-2\n")
	if strings.Contains(doc2, "body-1") || !strings.Contains(doc2, "body-2") {
		t.Fatalf("replace splice failed:\n%s", doc2)
	}
	if !strings.Contains(doc2, "trailing text") || strings.Count(doc2, begin) != 1 {
		t.Fatalf("splice damaged surrounding document:\n%s", doc2)
	}
}

// TestOverloadMarkdownRenders sanity-checks the markdown renderers used
// by the matrix-report experiment.
func TestOverloadMarkdownRenders(t *testing.T) {
	r := &OverloadReport{Schema: OverloadSchema, Cells: []OverloadCell{
		{Scenario: OverloadCrash, Load: "2x", Offered: 10, Admitted: 8, Shed: 2, ShedFraction: 0.2,
			QueueCap: 4, QueueHighWater: 4, ExactlyOnceAdmitted: true, AccountingExact: true},
		{Scenario: OverloadRetryStorm, Budgeted: true, RetryRounds: 2, RetrySuppressed: 1},
	}}
	md := r.Markdown()
	if !strings.Contains(md, "| crash | 2x | 10 | 8 | 2 |") || !strings.Contains(md, "budgeted") {
		t.Fatalf("overload markdown malformed:\n%s", md)
	}
	m := &MatrixReport{Schema: MatrixSchema, Cells: []MatrixCell{
		{Scenario: ScenarioCrash, Mechanism: MechSR3Star, Load: "burst", Tuples: 100, ExactlyOnce: true},
	}}
	if md := m.Markdown(); !strings.Contains(md, "| crash | sr3-star | burst | 100 |") {
		t.Fatalf("matrix markdown malformed:\n%s", md)
	}
}
