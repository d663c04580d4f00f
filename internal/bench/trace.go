package bench

import (
	"fmt"
	"strings"
	"time"

	"sr3/internal/detector"
	"sr3/internal/metrics"
	"sr3/internal/obs"
	"sr3/internal/supervise"
)

// The trace experiment's size: deliberately tiny (32 nodes, 48 tuples of
// warm state before the checkpoint the kill must recover) so it doubles
// as a CI smoke test.
const (
	traceNodes  = 32
	traceSeed   = 911
	traceTuples = 48
)

// TraceBreakdown is one traced kill→detect→recover cycle: the phase
// totals of a single coherent distributed trace (the repo's Fig. 9/11
// analogue, reconstructed from spans instead of ad-hoc timers).
type TraceBreakdown struct {
	Mechanism string `json:"mechanism"`
	TraceID   uint64 `json:"trace_id"`
	// Spans counts every span in the trace (collect spans scale with the
	// provider chain/tree, so line and tree produce more than star).
	Spans int `json:"spans"`
	// MTTRMs is the selfheal root span's duration: silence start →
	// state recovered, replayed and re-protected.
	MTTRMs float64 `json:"mttr_ms"`
	// PhaseMs sums span durations by phase within the trace.
	PhaseMs map[string]float64 `json:"phase_ms"`
}

// TraceReport is the trace experiment's result set.
type TraceReport struct {
	Rows []TraceBreakdown `json:"rows"`
}

// tracePhaseOrder fixes the breakdown column order (pipeline order).
var tracePhaseOrder = []string{
	obs.PhaseDetect, obs.PhaseEnqueue, obs.PhasePlan, obs.PhaseFetch,
	obs.PhaseCollect, obs.PhaseMerge, obs.PhaseStall, obs.PhaseReplay,
	obs.PhaseSave, obs.PhaseReprotect,
}

// Format renders the per-phase table.
func (r TraceReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: one supervised kill→detect→recover per mechanism on a %d-node ring (seed %d); phase totals from one distributed trace each\n", traceNodes, traceSeed)
	fmt.Fprintf(&b, "%-6s %6s %9s", "mech", "spans", "mttr")
	for _, p := range tracePhaseOrder {
		fmt.Fprintf(&b, " %9s", p)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s %6d %7.1fms", row.Mechanism, row.Spans, row.MTTRMs)
		for _, p := range tracePhaseOrder {
			fmt.Fprintf(&b, " %7.1fms", row.PhaseMs[p])
		}
		b.WriteString("\n")
	}
	b.WriteString("(mttr = selfheal root span; fetch is star's transfer phase, collect is line/tree's; phase sums overlap-free per span but concurrent spans can overlap wall-clock)\n")
	return b.String()
}

// TraceSweep runs one traced task-bound self-heal per mechanism —
// star, line, tree — on identically seeded rigs and returns the
// per-phase breakdowns. reg, when non-nil, additionally aggregates every
// span into per-phase latency histograms (the sr3bench -metrics
// endpoint).
func TraceSweep(reg *metrics.Registry) (TraceReport, error) {
	var report TraceReport
	for _, mech := range []string{MechSR3Star, MechSR3Line, MechSR3Tree} {
		row, err := traceCell(mech, reg)
		if err != nil {
			return report, fmt.Errorf("trace %s: %w", mech, err)
		}
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

// traceCell runs one supervised kill→heal with tracing on — the rig's
// topology checkpointing through the SR3 backend, its state owner
// killed, φ-accrual detection, task kill + backend recovery + input-log
// replay + re-protection — and extracts the resulting trace's breakdown.
func traceCell(mechanism string, reg *metrics.Registry) (TraceBreakdown, error) {
	var row TraceBreakdown
	collector := obs.NewCollector()
	var sink obs.Sink = collector
	if reg != nil {
		sink = obs.MultiSink{collector, obs.NewMetricsSink(reg, "")}
	}
	tracer := obs.New(sink)

	r, err := newRig(rigOpts{seed: traceSeed, mechanism: mechanism, nodes: traceNodes})
	if err != nil {
		return row, err
	}
	defer r.Close()
	r.cluster.SetTracer(tracer)

	r.pump(0, traceTuples, 0)
	r.drain()
	if err := r.saveAll(); err != nil {
		return row, err
	}

	// The wide repair interval keeps the untraced repair-loop backstop
	// from winning the race against φ-accrual detection: the heal must
	// come from a death verdict, which carries the trace root.
	sup := r.supervise(supervise.Config{
		Detector:       detector.Config{Interval: 15 * time.Millisecond, Threshold: 8},
		RepairInterval: 5 * time.Second,
		Tracer:         tracer,
	})
	sup.Protect(supervise.StateSpec{App: rigCountKey, TaskBound: true})
	if err := sup.Start(); err != nil {
		return row, err
	}

	// A post-checkpoint batch forces real replay work during recovery.
	r.pump(traceTuples, 2*traceTuples, 0)
	r.drain()
	if err := r.killOwner(0); err != nil {
		return row, err
	}

	var traceID uint64
	if err := waitUntil(30*time.Second, func() bool {
		for _, e := range sup.Events() {
			if e.App == rigCountKey && e.TaskBound && e.Err == nil && !e.ReprotectedAt.IsZero() {
				traceID = e.Trace
				return true
			}
		}
		return false
	}); err != nil {
		return row, fmt.Errorf("task-bound self-heal: %w", err)
	}
	if traceID == 0 {
		return row, fmt.Errorf("healed event for %s carries no trace ID", rigCountKey)
	}
	if a, err := r.audit(); err != nil {
		return row, err
	} else if !a.exactlyOnce() {
		return row, fmt.Errorf("traced recovery not exactly-once (missing=%d state_exact=%v)", a.missing, a.stateExact)
	}
	return extractBreakdown(collector, strings.TrimPrefix(mechanism, "sr3-"), traceID)
}

// extractBreakdown sums one trace's phases into a breakdown row.
func extractBreakdown(collector *obs.Collector, mech string, traceID uint64) (TraceBreakdown, error) {
	spans := collector.Trace(traceID)
	var mttr int64
	rootSeen := false
	for _, s := range spans {
		if s.Phase == obs.PhaseSelfHeal && s.Parent == 0 {
			rootSeen = true
			mttr = s.Duration()
		}
	}
	if !rootSeen {
		return TraceBreakdown{}, fmt.Errorf("trace %d has no selfheal root (%d spans)", traceID, len(spans))
	}
	phases := make(map[string]float64, len(spans))
	for p, ns := range collector.PhaseTotals(traceID) {
		phases[p] = float64(ns) / float64(time.Millisecond)
	}
	return TraceBreakdown{
		Mechanism: mech,
		TraceID:   traceID,
		Spans:     len(spans),
		MTTRMs:    float64(mttr) / float64(time.Millisecond),
		PhaseMs:   phases,
	}, nil
}
