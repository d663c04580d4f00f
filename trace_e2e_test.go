package sr3

import (
	"testing"
	"time"

	"sr3/internal/obs"
)

// TestSupervisedRuntimeEmitsConnectedTrace drives the full production
// path under tracing: a live word-count topology checkpoints through
// the SR3 backend, the DHT node owning the task's state is killed, and
// the φ-accrual detector → supervisor → backend recovery → input-log
// replay pipeline must heal the task while emitting ONE connected
// distributed trace that includes the replay phase. The tracer runs on a
// virtual clock that advances with every reading, so each span lasts at
// least a tick and nests by the order of events, however the scheduler
// stretches them; the detector keeps the wall clock, and its silence
// window keeps its measured length.
func TestSupervisedRuntimeEmitsConnectedTrace(t *testing.T) {
	collector := obs.NewCollector()
	tracer := obs.New(collector, obs.WithClock(obs.StepClock(time.Unix(1000, 0), time.Millisecond)))
	f, err := New(Config{Nodes: 32, Seed: 79, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	r := newHealRig(t, f, "obs")
	rt, taskKey, owner := r.rt, r.taskKey, r.owner

	// The wide repair interval keeps the untraced repair backstop out of
	// the race: the heal must come through a detector verdict, which is
	// what carries the trace root.
	if err := f.StartSupervision(SupervisionConfig{
		Heartbeat:      15 * time.Millisecond,
		PhiThreshold:   8,
		RepairInterval: 10 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	defer f.StopSupervision()
	if err := f.SuperviseRuntime(rt); err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint tuples force real replay work during the heal.
	r.push(40)
	waitUntil(t, 10*time.Second, "second batch processed", func() bool { return r.count("w0") == 20 })
	f.FailNode(owner)

	var healTrace uint64
	waitUntil(t, 30*time.Second, "traced task-bound self-heal", func() bool {
		for _, e := range f.SelfHealEvents() {
			if e.App == taskKey && e.TaskBound && e.Err == nil && !e.ReprotectedAt.IsZero() {
				healTrace = e.Trace
				return true
			}
		}
		return false
	})
	f.StopSupervision()
	close(r.in)
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if healTrace == 0 {
		t.Fatal("healed event carries no trace ID — heal bypassed the verdict path")
	}

	// The heal's trace must be connected (every parent resolves), rooted
	// at a single selfheal span, and show the full pipeline including
	// replay — detection through re-protection as one coherent story.
	spans := collector.Trace(healTrace)
	if len(spans) == 0 {
		t.Fatalf("no spans collected for heal trace %d", healTrace)
	}
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	roots := 0
	for _, s := range spans {
		byID[s.Span] = s
		if s.Parent == 0 {
			roots++
			if s.Phase != obs.PhaseSelfHeal {
				t.Fatalf("root span phase = %q, want %q", s.Phase, obs.PhaseSelfHeal)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("trace %d has %d roots, want 1", healTrace, roots)
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s) has dangling parent %d", s.Span, s.Phase, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s) escapes parent %d (%s)", s.Span, s.Phase, p.Span, p.Phase)
		}
	}
	totals := collector.PhaseTotals(healTrace)
	for _, p := range []string{obs.PhaseDetect, obs.PhaseEnqueue, obs.PhaseRecover, obs.PhasePlan, obs.PhaseMerge, obs.PhaseReplay, obs.PhaseReprotect} {
		if totals[p] <= 0 {
			t.Fatalf("phase %q missing from heal trace breakdown %v", p, totals)
		}
	}
}
