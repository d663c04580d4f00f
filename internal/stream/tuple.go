// Package stream implements a Storm-style distributed stream processing
// runtime: topologies are DAGs of spouts (sources) and bolts (operators)
// wired by stream groupings, executed by per-task goroutines. Stateful
// bolts expose a state.Store; the runtime periodically saves operator
// state through a pluggable backend (SR3 or the checkpointing baseline)
// and can kill and recover tasks — the integration surface the paper
// adds to Storm's IRichBolt (paper §4).
//
// Recovery model: stateful bolts are assumed deterministic. Recovery
// restores the last saved snapshot and replays the tuples received since,
// exactly reconstructing the lost state (the same contract
// checkpoint+replay and DStream lineage recovery rely on). Who retains
// those tuples depends on what can fail. In process (the Framework, the
// benchmarks) a task is killed and recovered inside a runtime that
// outlives it, so each task keeps them itself, in an input log truncated
// at every save, and RecoverTask replays that. In the sr3node daemon a
// task dies with its process and the log would die with it: the replay
// source is upstream — the sender's relay window (internal/cluster), which
// retains every tuple in flight, encoded once — and with
// Config.UpstreamReplay a live task keeps no second copy. Only a task
// between Kill and Recover logs there, to hold what arrives while its
// state is being restored.
package stream

import (
	"fmt"

	"sr3/internal/state"
)

// Tuple is one data record flowing through a topology.
type Tuple struct {
	// Stream identifies the logical stream (usually the emitting
	// component's ID).
	Stream string
	// Values are the record's fields.
	Values []any
	// Ts is an optional event timestamp (milliseconds) used by windows.
	Ts int64
}

// String formats a tuple for logs.
func (t Tuple) String() string {
	return fmt.Sprintf("%s%v@%d", t.Stream, t.Values, t.Ts)
}

// StringAt returns field i as a string (empty when absent or non-string).
func (t Tuple) StringAt(i int) string {
	if i < 0 || i >= len(t.Values) {
		return ""
	}
	s, _ := t.Values[i].(string)
	return s
}

// IntAt returns field i as an int64 (0 when absent or non-numeric).
func (t Tuple) IntAt(i int) int64 {
	if i < 0 || i >= len(t.Values) {
		return 0
	}
	switch v := t.Values[i].(type) {
	case int:
		return int64(v)
	case int64:
		return v
	case uint64:
		return int64(v)
	case float64:
		return int64(v)
	default:
		return 0
	}
}

// FloatAt returns field i as a float64 (0 when absent or non-numeric).
func (t Tuple) FloatAt(i int) float64 {
	if i < 0 || i >= len(t.Values) {
		return 0
	}
	switch v := t.Values[i].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	default:
		return 0
	}
}

// Emit forwards a tuple produced by a bolt or spout.
type Emit func(t Tuple)

// Spout produces source tuples. Next returns false when the source is
// exhausted (finite benchmark sources) — the runtime then drains and
// stops.
type Spout interface {
	Next() (Tuple, bool)
}

// Bolt processes one input tuple, emitting any number of outputs.
type Bolt interface {
	Execute(t Tuple, emit Emit) error
}

// StatefulBolt is a bolt whose state SR3 protects. The runtime snapshots
// and restores the returned store; the same store instance must back the
// bolt's processing.
type StatefulBolt interface {
	Bolt
	Store() StateStore
}

// StateStore is the store contract the runtime snapshots and restores: a
// save borrows the store's View, a recovery restores from the view its
// backend lends (RestoreView).
type StateStore = state.Store

// BatchBolt is a bolt that takes its input a run at a time: the tuples
// the executor found queued, in arrival order, all of one traffic class
// (a run that mixes classes is split where the class changes, and at a
// periodic-save boundary). The runtime calls ExecuteBatch instead of
// Execute when a bolt implements this interface; a returned error counts
// as one execute error. The slice is only valid during the call. Egress
// relays of a multi-process cluster implement it, to encode a run outside
// their lock and to keep a replayed tuple replay-class on the next hop's
// wire frame.
type BatchBolt interface {
	Bolt
	ExecuteBatch(tuples []Tuple, class TrafficClass, emit Emit) error
}

// BoltFunc adapts a function to the Bolt interface.
type BoltFunc func(t Tuple, emit Emit) error

// Execute implements Bolt.
func (f BoltFunc) Execute(t Tuple, emit Emit) error { return f(t, emit) }

// SpoutFunc adapts a function to the Spout interface.
type SpoutFunc func() (Tuple, bool)

// Next implements Spout.
func (f SpoutFunc) Next() (Tuple, bool) { return f() }
