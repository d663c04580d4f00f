package sr3

import (
	"sr3/internal/state"
	"sr3/internal/stream"
)

// Re-exported stream-runtime surface so applications (the examples, and
// any topology built on this repo) program against package sr3 alone.

// Stream runtime types.
type (
	// Topology is a DAG of spouts and bolts under construction.
	Topology = stream.Topology
	// Tuple is one data record.
	Tuple = stream.Tuple
	// Emit forwards a produced tuple downstream.
	Emit = stream.Emit
	// Spout produces source tuples.
	Spout = stream.Spout
	// Bolt processes tuples.
	Bolt = stream.Bolt
	// StatefulBolt is a bolt whose state SR3 protects.
	StatefulBolt = stream.StatefulBolt
	// BoltFunc adapts a function to Bolt.
	BoltFunc = stream.BoltFunc
	// SpoutFunc adapts a function to Spout.
	SpoutFunc = stream.SpoutFunc
	// Runtime executes a topology.
	Runtime = stream.Runtime
	// RuntimeConfig tunes a runtime.
	RuntimeConfig = stream.Config
	// StateStore is the snapshot/restore surface of a state store.
	StateStore = stream.StateStore
	// Aggregator reduces a closed window.
	Aggregator = stream.Aggregator
	// QueuePolicy selects what a bounded task queue does when a data
	// tuple arrives and the queue is full (RuntimeConfig.QueuePolicy).
	QueuePolicy = stream.QueuePolicy
)

// Queue-full policies for RuntimeConfig.QueuePolicy.
const (
	// QueueBlock stalls the producer until a slot frees (credit-based
	// backpressure; the default).
	QueueBlock = stream.QueueBlock
	// QueueShedOldest drops the oldest queued ingest tuple to admit the
	// new one; replay traffic is never shed.
	QueueShedOldest = stream.QueueShedOldest
)

// State stores.
type (
	// MapStore is the in-memory hashtable state.
	MapStore = state.MapStore
	// BloomFilter is the probabilistic membership state.
	BloomFilter = state.BloomFilter
	// GraphStore is the weighted co-occurrence graph state.
	GraphStore = state.GraphStore
)

// NewTopology starts building a topology.
func NewTopology(name string) *Topology { return stream.NewTopology(name) }

// NewRuntime materializes a topology with the given configuration.
func NewRuntime(t *Topology, cfg RuntimeConfig) (*Runtime, error) {
	return stream.NewRuntime(t, cfg)
}

// NewMapStore returns an empty hashtable state store.
func NewMapStore() *MapStore { return state.NewMapStore() }

// NewBloomFilter sizes a Bloom filter for the expected items and
// false-positive rate.
func NewBloomFilter(expectedItems int, fpRate float64) *BloomFilter {
	return state.NewBloomFilter(expectedItems, fpRate)
}

// NewGraphStore returns an empty graph state store.
func NewGraphStore() *GraphStore { return state.NewGraphStore() }

// NewTumblingWindow builds an event-time tumbling window bolt.
func NewTumblingWindow(sizeMs int64, agg Aggregator) Bolt {
	return stream.NewTumblingWindow(sizeMs, agg)
}
