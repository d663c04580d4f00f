package stream

import (
	"sort"

	"sr3/internal/metrics"
)

// instruments are the runtime-wide steady-state metric handles, resolved
// once at NewRuntime so the hot path never does a registry map lookup.
// A nil *instruments (metrics disabled) costs one pointer check per
// recording site and allocates nothing — the same discipline as the
// nil-receiver Tracer in internal/obs.
type instruments struct {
	tuplesIn    *metrics.Counter
	tuplesOut   *metrics.Counter
	acks        *metrics.Counter
	replays     *metrics.Counter
	spoutTuples *metrics.Counter
	emitBlocked *metrics.Counter
	execErrors  *metrics.Counter
	shed        *metrics.Counter
	degraded    *metrics.Gauge
	logged      *metrics.Gauge
	procNs      *metrics.LatencyHistogram
	blockWaitNs *metrics.LatencyHistogram
}

func newInstruments(reg *metrics.Registry) *instruments {
	return &instruments{
		tuplesIn:    reg.Counter("sr3_stream_tuples_in_total"),
		tuplesOut:   reg.Counter("sr3_stream_tuples_out_total"),
		acks:        reg.Counter("sr3_stream_acks_total"),
		replays:     reg.Counter("sr3_stream_replays_total"),
		spoutTuples: reg.Counter("sr3_stream_spout_tuples_total"),
		emitBlocked: reg.Counter("sr3_stream_emit_blocked_ns_total"),
		execErrors:  reg.Counter("sr3_stream_execute_errors_total"),
		shed:        reg.Counter("sr3_stream_shed_total"),
		degraded:    reg.Gauge("sr3_stream_degraded"),
		logged:      reg.Gauge("sr3_stream_input_log_tuples"),
		procNs:      reg.Histogram("sr3_stream_proc_ns"),
		blockWaitNs: reg.Histogram("sr3_stream_emit_block_wait_ns"),
	}
}

func (in *instruments) noteSpout() {
	if in == nil {
		return
	}
	in.spoutTuples.Inc()
}

// noteDegraded tracks the degraded-service mode gauge (1 while shed
// mode is held).
func (in *instruments) noteDegraded(on bool) {
	if in == nil {
		return
	}
	if on {
		in.degraded.Set(1)
	} else {
		in.degraded.Set(0)
	}
}

// noteLogged moves the input-log gauge — tuples logged for replay, all
// stateful tasks of every runtime on the registry — by one task's change.
func (in *instruments) noteLogged(delta int64) {
	if in == nil {
		return
	}
	in.logged.Add(delta)
}

// taskInstruments are one task's metric handles plus the runtime-wide
// roll-ups, so each event is recorded at both granularities with no
// lookup. Per-task metric names embed the task key (the registry has no
// label support; promName maps the key's slashes to underscores), e.g.
// sr3_stream_task_wordcount_counter_0_proc_ns.
type taskInstruments struct {
	rt          *instruments
	tuplesIn    *metrics.Counter
	tuplesOut   *metrics.Counter
	acks        *metrics.Counter
	replays     *metrics.Counter
	shed        *metrics.Counter
	procNs      *metrics.LatencyHistogram
	blockWaitNs *metrics.LatencyHistogram
	depth       *metrics.Gauge
	highWater   *metrics.Gauge
	stateBytes  *metrics.Gauge
	emitBlocked *metrics.Counter
}

func newTaskInstruments(rt *instruments, reg *metrics.Registry, key string) *taskInstruments {
	p := "sr3_stream_task_" + key
	return &taskInstruments{
		rt:          rt,
		tuplesIn:    reg.Counter(p + "_tuples_in_total"),
		tuplesOut:   reg.Counter(p + "_tuples_out_total"),
		acks:        reg.Counter(p + "_acks_total"),
		replays:     reg.Counter(p + "_replays_total"),
		shed:        reg.Counter(p + "_shed_total"),
		procNs:      reg.Histogram(p + "_proc_ns"),
		blockWaitNs: reg.Histogram(p + "_emit_block_wait_ns"),
		depth:       reg.Gauge(p + "_queue_depth"),
		highWater:   reg.Gauge(p + "_queue_high_water"),
		stateBytes:  reg.Gauge(p + "_state_bytes"),
		emitBlocked: reg.Counter(p + "_emit_blocked_ns_total"),
	}
}

// notePush records one queue push at this task: n tuples offered, the
// tuples the queue shed (the ledger counts tuples, never pushes), the
// post-push depth as the backpressure signal with the high-water gauge
// ratcheting, both in tuples, and the time the sender spent blocked on
// the full queue — emit-side backpressure. The counter accumulates total
// blocked nanoseconds; the histogram keeps one sample per blocked push so
// quantiles of backpressure stalls are observable, not just their sum.
func (ti *taskInstruments) notePush(n int64, res pushResult) {
	if ti == nil {
		return
	}
	ti.tuplesIn.Add(n)
	ti.rt.tuplesIn.Add(n)
	ti.depth.Set(int64(res.depth))
	ti.highWater.SetMax(int64(res.high))
	if res.shed > 0 {
		ti.shed.Add(int64(res.shed))
		ti.rt.shed.Add(int64(res.shed))
	}
	if res.blockedNs > 0 {
		ti.emitBlocked.Add(res.blockedNs)
		ti.rt.emitBlocked.Add(res.blockedNs)
		ti.blockWaitNs.Record(res.blockedNs)
		ti.rt.blockWaitNs.Record(res.blockedNs)
	}
}

// noteEmit records n tuples emitted by this task's bolt.
func (ti *taskInstruments) noteEmit(n int) {
	if ti == nil || n == 0 {
		return
	}
	ti.tuplesOut.Add(int64(n))
	ti.rt.tuplesOut.Add(int64(n))
}

// runStart reads the clock for a run about to execute (0 with metrics
// off: a disabled runtime never reads it).
func (ti *taskInstruments) runStart() int64 {
	if ti == nil {
		return 0
	}
	return nowNano()
}

// noteAcks records n fully processed tuples and their processing
// latency. proc_ns is smoothed over the run: the n tuples executed since
// start (runStart) are each counted at the run's mean, so Count and Sum
// stay exact while quantiles are quantiles of run means — a single slow
// tuple shows up diluted by the tuples that shared its run (at most
// runCap, and 1 whenever the queue holds 1).
func (ti *taskInstruments) noteAcks(start int64, n int) {
	if ti == nil {
		return
	}
	ns := nowNano() - start
	ti.acks.Add(int64(n))
	ti.rt.acks.Add(int64(n))
	ti.procNs.RecordN(ns, int64(n))
	ti.rt.procNs.RecordN(ns, int64(n))
}

// noteExecError records a bolt Execute call that returned an error.
func (ti *taskInstruments) noteExecError() {
	if ti == nil {
		return
	}
	ti.rt.execErrors.Inc()
}

// noteReplay records tuples re-executed from the input log on recovery.
func (ti *taskInstruments) noteReplay(n int) {
	if ti == nil || n == 0 {
		return
	}
	ti.replays.Add(int64(n))
	ti.rt.replays.Add(int64(n))
}

// noteState samples the size of the last saved snapshot.
func (ti *taskInstruments) noteState(bytes int) {
	if ti == nil {
		return
	}
	ti.stateBytes.Set(int64(bytes))
}

// TaskDebug is one task's row in the /debug/sr3 introspection view.
type TaskDebug struct {
	Key        string `json:"key"`
	Bolt       string `json:"bolt"`
	Index      int    `json:"index"`
	Stateful   bool   `json:"stateful"`
	Handled    int64  `json:"handled"`
	Logged     int64  `json:"logged,omitempty"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Offered    int64  `json:"offered"`
	Shed       int64  `json:"shed,omitempty"`
}

// TopologyDebug is a live point-in-time view of a running topology.
type TopologyDebug struct {
	Name          string      `json:"name"`
	Spouts        []string    `json:"spouts"`
	Tasks         []TaskDebug `json:"tasks"`
	Pending       int64       `json:"pending"`
	ExecuteErrors int64       `json:"execute_errors"`
	Degraded      bool        `json:"degraded,omitempty"`
	Shed          int64       `json:"shed,omitempty"`
}

// DebugView snapshots the runtime for the /debug/sr3 endpoint. Safe to
// call concurrently with processing: it reads only atomics and channel
// occupancy.
func (rt *Runtime) DebugView() TopologyDebug {
	d := TopologyDebug{
		Name:          rt.topo.name,
		Pending:       rt.pending.Load(),
		ExecuteErrors: rt.failures.Load(),
		Degraded:      rt.Degraded(),
		Shed:          rt.shedAll.Load(),
	}
	for id := range rt.topo.spouts {
		d.Spouts = append(d.Spouts, id)
	}
	sort.Strings(d.Spouts)
	for _, id := range rt.topo.sortedBolts() {
		for _, t := range rt.tasks[id] {
			d.Tasks = append(d.Tasks, TaskDebug{
				Key:        t.key,
				Bolt:       t.boltID,
				Index:      t.index,
				Stateful:   t.decl.stateful,
				Handled:    t.handled.Load(),
				Logged:     t.logged.Load(),
				QueueDepth: t.in.depth(),
				QueueCap:   t.in.capacity(),
				Offered:    t.offered.Load(),
				Shed:       t.shed.Load(),
			})
		}
	}
	return d
}
