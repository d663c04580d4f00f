package supervise

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"sr3/internal/obs"
	"sr3/internal/overload"
)

// shedRuntime is a fakeRuntime that also implements DegradedRuntime,
// recording the shed window the supervisor holds around a verdict.
type shedRuntime struct {
	fakeRuntime
	shedMu        sync.Mutex
	depth         int
	enters, exits int
	shedOnRecover bool
}

func (r *shedRuntime) EnterDegraded(reason string) {
	r.shedMu.Lock()
	defer r.shedMu.Unlock()
	r.depth++
	r.enters++
}

func (r *shedRuntime) ExitDegraded() {
	r.shedMu.Lock()
	defer r.shedMu.Unlock()
	r.depth--
	r.exits++
}

func (r *shedRuntime) RecoverTaskByKey(key string, tr *obs.Tracer, parent obs.SpanContext) error {
	r.shedMu.Lock()
	if r.depth > 0 {
		r.shedOnRecover = true
	}
	r.shedMu.Unlock()
	return r.fakeRuntime.RecoverTaskByKey(key, tr, parent)
}

// TestShedDuringRecoveryHoldsDegradedWindow: with ShedDuringRecovery set,
// the supervisor enters degraded mode on the runtime for the verdict's
// duration — held across the recovery itself — and drains it when the
// verdict settles.
func TestShedDuringRecoveryHoldsDegradedWindow(t *testing.T) {
	c := buildCluster(t, 20, 1301)
	owner := c.Ring.IDs()[0]
	snap := randomSnapshot(24_000, 31)
	mgr := c.Manager(owner)
	const taskKey = "topo/bolt/0"
	if _, err := mgr.Save(taskKey, snap, 8, 2, mgr.NextVersion(1)); err != nil {
		t.Fatalf("save: %v", err)
	}

	rt := &shedRuntime{fakeRuntime: fakeRuntime{cluster: c}}
	cfg := fastConfig()
	cfg.ShedDuringRecovery = true
	cfg.Flight = obs.NewFlightRecorder(0)
	s := New(c, cfg)
	s.BindRuntime(rt)
	s.Protect(StateSpec{App: taskKey, StateBytes: int64(len(snap)), TaskBound: true})
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Stop()
	defer func() {
		if t.Failed() {
			t.Logf("events: %+v\nflight:\n%s", s.Events(), flightDump(cfg.Flight))
		}
	}()

	c.Ring.Fail(owner)

	waitFor(t, 15*time.Second, "task-bound recovery event", func() bool {
		for _, e := range s.Events() {
			if e.App == taskKey && e.Err == nil && !e.ReprotectedAt.IsZero() {
				return true
			}
		}
		return false
	})
	// The event is recorded inside the verdict, before the deferred
	// drain runs — wait for the hold to settle before asserting on it.
	waitFor(t, 5*time.Second, "degraded hold drained", func() bool {
		rt.shedMu.Lock()
		defer rt.shedMu.Unlock()
		return rt.depth == 0 && rt.enters == rt.exits && rt.enters > 0
	})

	rt.shedMu.Lock()
	shedOnRecover := rt.shedOnRecover
	rt.shedMu.Unlock()
	if !shedOnRecover {
		t.Fatal("degraded mode was not held across the task recovery")
	}
}

// TestWithRetryBudgetCapsAttempts: the supervisor's per-verdict retry
// loop spends a token per pass after the first; on an empty bucket it
// fails fast with the last real error instead of burning all
// recoverAttempts passes.
func TestWithRetryBudgetCapsAttempts(t *testing.T) {
	c := buildCluster(t, 8, 1302)
	budget := overload.NewBudget(overload.BudgetPolicy{Ratio: 0.001, MinPerSec: 0.0001, Burst: 1})
	cfg := fastConfig()
	cfg.DisableRepairLoop = true
	cfg.RetryBudget = budget
	s := New(c, cfg)

	boom := errors.New("boom")
	calls := 0
	err := s.withRetry(func() error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped boom, got %v", err)
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("error does not name the budget: %v", err)
	}
	// Burst 1: pass 0 is free, pass 1 spends the token, pass 2 is
	// suppressed — so only two invocations, not recoverAttempts.
	if calls != 2 {
		t.Fatalf("f called %d times, want 2", calls)
	}
	if st := budget.Stats(); st.Spent != 1 || st.Suppressed != 1 {
		t.Fatalf("budget stats = %+v, want spent 1 / suppressed 1", st)
	}

	// A success earns the budget back toward future retries.
	if err := s.withRetry(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := budget.Stats(); st.Successes != 1 {
		t.Fatalf("success not earned: %+v", st)
	}
}
