package kinds

import (
	"sync/atomic"
	"time"

	"sr3/internal/cluster"
	"sr3/internal/metrics"
	"sr3/internal/stream"
)

// Spout is spout.bench, the load generator: one goroutine (the runtime's
// spout pump) emitting (key, seq) tuples from a Gen.
//
// Params: rate (tuples/s; 0 = unpaced), duration_ms, keys, seed.
//
// With rate > 0 the loop is open: tuple seq is due at t0 + (seq-1)/rate
// and is stamped with that due time whenever it actually leaves, so a
// pipeline that pushes back shows up as lag at the sink and as lateness
// here, never as a lower offered rate. With rate = 0 the loop is closed:
// Next returns at once and the producer is paced only by the blocking
// task queue; tuples are stamped with their emission time. A closed loop
// starts with a short paced ramp (see rampFor).
type Spout struct {
	gen      Gen
	names    []string
	rate     int64
	duration time.Duration
	stop     <-chan struct{}

	seq     int64
	t0      atomic.Int64 // UnixNano of the first Next
	emitted atomic.Int64
	done    atomic.Bool
	late    metrics.LatencyHistogram // ns between due and actual emission
}

// An unpaced generator emits at rampRate for its first rampFor. At the
// seed commit a relay whose 65 536-tuple window is full trims tuples as
// soon as they are written to the socket, and a node that has joined but
// not yet built its cell reads a frame, finds no cell and closes the
// connection: whatever was in flight is then lost for good (1 run in 5
// lost 4-54 tuples this way before the ramp; benchmark/README.md,
// "seed-commit findings"). The ramp keeps the window from filling until
// the cluster has formed, so that every run can be checked for
// exactly-once output; a paced generator never fills the window.
const (
	rampFor  = 500 * time.Millisecond
	rampRate = 1000
)

// NewSpout builds the generator from its component declaration.
func NewSpout(c cluster.Component, stop <-chan struct{}) *Spout {
	keys := c.Params["keys"]
	if keys < 1 {
		keys = 1
	}
	s := &Spout{
		gen:      NewGen(c.Params["seed"], keys),
		names:    make([]string, keys),
		rate:     c.Params["rate"],
		duration: time.Duration(c.Params["duration_ms"]) * time.Millisecond,
		stop:     stop,
	}
	for i := range s.names {
		s.names[i] = KeyName(int64(i))
	}
	return s
}

// Next implements stream.Spout.
func (s *Spout) Next() (stream.Tuple, bool) {
	now := time.Now().UnixNano()
	t0 := s.t0.Load()
	if t0 == 0 {
		t0 = now
		s.t0.Store(t0)
	}
	rate := s.rate
	if rate == 0 && now-t0 < int64(rampFor) {
		rate = rampRate
	}
	ts := now
	if rate > 0 {
		ts = t0 + s.seq*int64(time.Second)/rate
	}
	if ts-t0 >= int64(s.duration) {
		s.done.Store(true)
		return stream.Tuple{}, false
	}
	if wait := time.Duration(ts - now); wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-s.stop:
			t.Stop()
			return stream.Tuple{}, false
		}
		now = time.Now().UnixNano()
	} else {
		select {
		case <-s.stop:
			return stream.Tuple{}, false
		default:
		}
	}
	if s.rate > 0 {
		s.late.Record(now - ts)
	}
	s.seq++
	s.emitted.Store(s.seq)
	return stream.Tuple{Values: []any{s.names[s.gen.KeyID(s.seq)], s.seq}, Ts: ts}, true
}

// SpoutDigest is the generator's progress report.
type SpoutDigest struct {
	T0Ns    int64 `json:"t0_ns"`
	Emitted int64 `json:"emitted"`
	Done    bool  `json:"done"`
	Late    *Hist `json:"late,omitempty"`
}

// Digest reports progress; detail adds the lateness histogram.
func (s *Spout) Digest(detail bool) SpoutDigest {
	d := SpoutDigest{T0Ns: s.t0.Load(), Emitted: s.emitted.Load(), Done: s.done.Load()}
	if detail {
		h := SnapshotHist(&s.late)
		d.Late = &h
	}
	return d
}
