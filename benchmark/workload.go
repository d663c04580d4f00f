package main

import (
	"fmt"
	"time"
)

// workload is one named set of inputs. Every workload runs the same
// topology — source and sink on node1, state on node2, node3 a spare
// holder and adopter — so each run crosses two process edges: in
// (source -> state) and out (state -> sink).
type workload struct {
	Name       string `json:"name"`
	Why        string `json:"why"`
	Rate       int64  `json:"rate_per_s"` // 0 = unpaced closed loop
	Keys       int64  `json:"keys"`
	ValueBytes int64  `json:"value_bytes"`
	SaveEvery  int    `json:"save_every"`
	Kill       bool   `json:"kill"`
	PollMs     int    `json:"poll_ms"`
}

// warmup is the fixed lead before the measurement window. It covers the
// cluster forming, both relay windows (65 536 tuples) filling on the
// unpaced workload, and the 16 MiB state being touched in full
// (4096 keys at 1000 tuples/s = 4.1 s) with at least two saves scattered.
const warmup = 5 * time.Second

// spoutTail keeps the generator running just past the window's end so
// the window never ends on an idle pipeline.
const spoutTail = 200 * time.Millisecond

// drainTimeout is how long a run waits, after the generator stops, for
// the sink to hold every emitted tuple before it counts the rest missing.
const drainTimeout = 20 * time.Second

var workloads = []workload{
	{
		Name: "edge-saturate",
		Why:  "unpaced, 1 KiB of state: the tuple plane (codec, BatchConn, relay, queue, bolt) does all the work, protection almost none",
		Rate: 0, Keys: 64, ValueBytes: 16, SaveEvery: 65536, PollMs: 100,
	},
	{
		Name: "paced-small",
		Why:  "1000 tuples/s, 1 KiB of state: the latency floor with nothing stalling; bypasses both the saturated tuple plane and protection",
		Rate: 1000, Keys: 64, ValueBytes: 16, SaveEvery: 2000, PollMs: 100,
	},
	{
		Name: "protect-16m",
		Why:  "paced-small with 16 MiB of state: all it costs over paced-small is the protection write path (snapshot, split, scatter, repair)",
		Rate: 1000, Keys: 4096, ValueBytes: 4096, SaveEvery: 2000, PollMs: 100,
	},
	{
		Name: "kill-16m",
		Why:  "protect-16m with the state owner SIGKILLed in the window: protection read path, detection, adoption and relay replay",
		Rate: 1000, Keys: 4096, ValueBytes: 4096, SaveEvery: 2000, Kill: true, PollMs: 10,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// topoYAML renders the topology for one run whose generator runs for
// measured (warm-up plus window) and a tail. batch, channel_depth,
// shards and replicas are left to the spec's defaults (32, 1024, 4, 2).
func (w workload) topoYAML(seed int64, measured time.Duration) string {
	return fmt.Sprintf(`topology: bench
save_every: %d
components:
  - id: source
    kind: spout.bench
    node: node1
    rate: %d
    duration_ms: %d
    keys: %d
    seed: %d
  - id: state
    kind: bolt.benchstate
    node: node2
    value_bytes: %d
    inputs:
      - from: source
        grouping: fields
        field: 0
  - id: sink
    kind: bolt.benchsink
    node: node1
    inputs:
      - from: state
        grouping: global
`, w.SaveEvery, w.Rate, (measured + spoutTail).Milliseconds(), w.Keys, seed, w.ValueBytes)
}
