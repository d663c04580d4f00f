package recovery

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sr3/internal/overload"
)

// drainedBudget returns a budget with its burst spent and a refill floor
// too slow to matter within a test: every Allow is suppressed.
func drainedBudget() *overload.Budget {
	b := overload.NewBudget(overload.BudgetPolicy{Ratio: 0.001, MinPerSec: 0.0001, Burst: 1})
	b.Allow() // spend the cold-start token
	return b
}

// TestRetryBudgetSuppressesStarRetryRounds: the star chaos scenario that
// normally succeeds by outlasting a transient double-kill with retry
// rounds must instead fail fast when the retry budget refuses to fund
// the extra passes — and the error names both the exhaustion and the
// budget.
func TestRetryBudgetSuppressesStarRetryRounds(t *testing.T) {
	// Budgeted but funded: identical to the unbudgeted chaos run, plus
	// Spent accounting.
	env := newChaosEnv(t, Star, 77)
	env.arm("sr3.", 250*time.Millisecond)
	opts := DefaultOptions()
	opts.FailoverRetries = 4
	opts.RetryBackoff = 50 * time.Millisecond
	funded := overload.NewBudget(overload.BudgetPolicy{Ratio: 0.001, MinPerSec: 0.0001, Burst: 10})
	opts.RetryBudget = funded
	res, err := joined(env.c.Recover("app", Star, opts))
	if err != nil {
		t.Fatalf("funded budget: %v", err)
	}
	if !bytes.Equal(res.Snapshot, env.snap) {
		t.Fatal("recovered state differs")
	}
	if s := funded.Stats(); s.Spent == 0 {
		t.Fatalf("funded budget recorded no spend: %+v", s)
	}

	// Same fault plan, drained budget: the retry rounds are suppressed,
	// so the transient kill reads as replica exhaustion.
	env = newChaosEnv(t, Star, 77)
	env.arm("sr3.", 250*time.Millisecond)
	drained := drainedBudget()
	opts.RetryBudget = drained
	_, err = joined(env.c.Recover("app", Star, opts))
	if !errors.Is(err, ErrReplicasExhausted) {
		t.Fatalf("drained budget: want ErrReplicasExhausted, got %v", err)
	}
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("drained budget: want ErrRetryBudget attached, got %v", err)
	}
	if s := drained.Stats(); s.Suppressed == 0 {
		t.Fatalf("drained budget recorded no suppression: %+v", s)
	}
}

// TestRetryBudgetDegradesLineReplanToStar: with the budget drained, the
// line executor cannot fund chain replans — but it must degrade the
// leftovers to the star ladder (whose first pass is free) rather than
// abort, and still reassemble byte-identical state.
func TestRetryBudgetDegradesLineReplanToStar(t *testing.T) {
	env := newChaosEnv(t, Line, 78)
	env.arm("sr3.line", 0)
	opts := DefaultOptions()
	opts.RetryBudget = drainedBudget()
	res, err := joined(env.c.Recover("app", Line, opts))
	if err != nil {
		t.Fatalf("line with drained budget: %v", err)
	}
	if !bytes.Equal(res.Snapshot, env.snap) {
		t.Fatal("recovered state differs")
	}
	if !res.Outcome.Degraded || res.Outcome.DegradedTo != Star {
		t.Fatalf("suppressed replan did not degrade to star: %+v", res.Outcome)
	}
}
