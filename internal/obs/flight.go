package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Flight-recorder event kinds. The recorder is a coarse journal of
// cluster-level happenings — topology lifecycle, failure verdicts,
// membership churn, recovery outcomes — not a per-tuple trace; per-tuple
// and per-phase detail lives in the Tracer.
const (
	FlightTopologyStart = "topology.start"
	FlightTopologyStop  = "topology.stop"
	FlightTaskKill      = "task.kill"
	FlightTaskRecover   = "task.recover"
	FlightVerdict       = "verdict"
	FlightChurn         = "churn"
	FlightRecoveryOK    = "recovery.ok"
	FlightRecoveryFail  = "recovery.fail"
	FlightDumpMark      = "dump"
	// Gray-failure tier transitions (supervise escalation policy): a
	// peer suspected by φ, classified slow-but-alive, back to healthy,
	// or escalated to a kill verdict after degrading too long. Detail
	// carries the detector's cause note so PostMortem explains why a
	// node was demoted rather than killed.
	FlightSuspected    = "gray.suspected"
	FlightDegraded     = "gray.degraded"
	FlightDegradeClear = "gray.clear"
	FlightEscalated    = "gray.escalated"
	// Overload-control transitions: the stream runtime entering/leaving
	// degraded-service shed mode (Detail carries the reason and, on
	// stop, the exact offered/shed accounting). These are what lets
	// PostMortem explain *why* tuples were shed.
	FlightShedStart = "overload.shed_start"
	FlightShedStop  = "overload.shed_stop"
	// A configuration a node starts with but cannot fully honour (Detail
	// names the values): what a post-mortem of lost tuples checks first.
	FlightConfigWarn = "config.warn"
)

// FlightEvent is one journal entry. Fields are flat strings so a dump is
// greppable as JSONL without a schema.
type FlightEvent struct {
	Seq    uint64 `json:"seq"`
	At     int64  `json:"at"` // unix nanoseconds
	Kind   string `json:"kind"`
	Node   string `json:"node,omitempty"`
	App    string `json:"app,omitempty"`
	Detail string `json:"detail,omitempty"`
	Err    string `json:"err,omitempty"`
}

// FlightRecorder is an always-on bounded ring buffer of FlightEvents.
// Recording is cheap (a mutex and a slot write, no allocation beyond the
// strings the caller already built), so it stays enabled in production;
// when something goes wrong the last N events are the post-mortem. A nil
// recorder is valid and records nothing, matching the Tracer's
// nil-receiver discipline.
type FlightRecorder struct {
	mu      sync.Mutex
	buf     []FlightEvent
	next    uint64 // total events ever recorded; buf slot is next % cap
	dropped uint64
	now     func() time.Time
}

// DefaultFlightCap is the ring size used when NewFlightRecorder is given
// a non-positive capacity: enough to span a multi-failure incident, small
// enough to be dumped whole into a log line budget.
const DefaultFlightCap = 1024

// NewFlightRecorder returns a recorder holding the last capacity events.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &FlightRecorder{buf: make([]FlightEvent, 0, capacity), now: time.Now}
}

// SetClock swaps the timestamp source (deterministic tests).
func (f *FlightRecorder) SetClock(now func() time.Time) {
	if f == nil || now == nil {
		return
	}
	f.mu.Lock()
	f.now = now
	f.mu.Unlock()
}

// Note records an event built from the common fields. err may be nil.
func (f *FlightRecorder) Note(kind, node, app, detail string, err error) {
	if f == nil {
		return
	}
	ev := FlightEvent{Kind: kind, Node: node, App: app, Detail: detail}
	if err != nil {
		ev.Err = err.Error()
	}
	f.Add(ev)
}

// Add records an event, stamping Seq and At. Oldest events are
// overwritten once the ring is full.
func (f *FlightRecorder) Add(ev FlightEvent) {
	if f == nil {
		return
	}
	f.mu.Lock()
	ev.Seq = f.next
	ev.At = f.now().UnixNano()
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, ev)
	} else {
		f.buf[f.next%uint64(cap(f.buf))] = ev
		f.dropped++
	}
	f.next++
	f.mu.Unlock()
}

// Len reports how many events are currently held (≤ capacity).
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.buf)
}

// Total reports how many events were ever recorded.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Dropped reports how many events were overwritten by wraparound.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// Events returns the held events oldest-first.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, len(f.buf))
	if len(f.buf) < cap(f.buf) {
		out = append(out, f.buf...)
		return out
	}
	// Full ring: the oldest event sits at the overwrite cursor.
	start := int(f.next % uint64(cap(f.buf)))
	out = append(out, f.buf[start:]...)
	out = append(out, f.buf[:start]...)
	return out
}

// WriteJSON dumps the journal oldest-first as JSON lines — the
// post-mortem format the supervisor emits on a failure verdict.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range f.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
