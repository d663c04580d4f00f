package main

// metricDef names one reported metric. The end-to-end list and the
// per-layer list here are the benchmark's vocabulary; BENCHMARK.json
// repeats name, unit and direction (a test keeps the two in step) and
// adds the regression bound of each end-to-end metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" | "lower"
	Doc    string
}

// catalog is every metric, end-to-end first.
func catalog() []metricDef { return append(append([]metricDef(nil), endToEnd...), perLayer...) }

// endToEnd metrics are reported by every workload of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "first process launched -> all /healthz green and first tuple at the sink; median of the run's set-ups"},
	{"tuples_per_s", "1/s", "higher", "distinct tuples accepted exactly-once by the sink per second of the measurement window"},
	{"rss_mb_peak", "MB", "lower", "sum of the node processes' resident sets, 95th percentile of the run's 100 ms samples (the single largest sample is one GC cycle's luck)"},
}

// perLayer metrics are reported by every workload of a traced run. A
// metric that does not apply to a workload (the kill and trace.* rows
// outside kill-16m) reads 0 there.
var perLayer = []metricDef{
	// End-to-end in nature, but not steady enough on every workload of
	// this 2-core shared box to carry a regression bound (README,
	// "calibration"): reported and compared, never gated.
	{"cpu_us_per_tuple", "us", "lower", "CPU time of all node processes over the window / tuples delivered in it"},
	{"lag_ms_p50", "ms", "lower", "sink-side now-Ts of first deliveries in the window, median"},
	{"lag_ms_p99", "ms", "lower", "the same, 99th percentile; on kill-16m the window spans the kill, so this is latency through recovery"},

	// The fault, seen from outside (kill-16m only). They are end-to-end
	// in nature but exist on one workload only, and an end-to-end metric
	// has to be non-zero on all of them.
	{"detect_ms", "ms", "lower", "SIGKILL -> the seed's view marks the member dead"},
	{"recover_ms", "ms", "lower", "SIGKILL -> the seed's assign[state] flips, which follows the adopter's ACK of restored state"},
	{"output_stall_ms", "ms", "lower", "longest pause in the sink's distinct count from the kill on"},
	{"catchup_ms", "ms", "lower", "SIGKILL -> emitted minus delivered is back within 0.1 s of offered rate"},

	{"workload.emitted", "count", "higher", "tuples the generator handed to the runtime"},
	{"workload.late_ms_p99", "ms", "lower", "how late the open-loop generator emitted against its schedule"},
	{"workload.drain_ms", "ms", "lower", "generator stopped -> sink holds every emitted tuple"},

	{"codec.encode_ns_per_tuple", "ns", "lower", "stream.EncodeTupleBatch on the workload's tuples at the spec batch size"},
	{"codec.decode_ns_per_tuple", "ns", "lower", "stream.DecodeTupleBatch on the same frames"},
	{"codec.bytes_per_tuple", "B", "lower", "encoded frame bytes / tuples"},
	{"codec.allocs_per_frame", "count", "lower", "heap allocations of one encode + decode of a frame"},

	{"batchconn.ns_per_frame", "ns", "lower", "nettransport.BatchConn WriteBatch -> ReadBatch of one frame on a loopback connection"},
	{"batchconn.mb_per_s", "MB/s", "higher", "the same, as payload bytes per second"},

	{"relay.in.hop_ms_p99", "ms", "lower", "edge source->state: frame send -> ingress inject (sr3_cluster_edge_hop_ns)"},
	{"relay.in.wait_ms_p99", "ms", "lower", "edge source->state: oldest tuple's relay enqueue -> ingress inject (sr3_cluster_edge_lag_ns)"},
	{"relay.in.tuples_per_frame", "count", "higher", "edge source->state: tuples_total / frames_total"},
	{"relay.out.hop_ms_p99", "ms", "lower", "edge state->sink, as above"},
	{"relay.out.wait_ms_p99", "ms", "lower", "edge state->sink, as above"},
	{"relay.out.tuples_per_frame", "count", "higher", "edge state->sink, as above"},
	{"relay.replayed_tuples", "count", "lower", "tuples an edge carried that its receiver had already covered (relay window replay)"},

	{"runtime.inproc_tuples_per_s", "1/s", "higher", "the same three components in one stream.Runtime with no process edge: the single-process baseline"},
	{"runtime.state.proc_us_p50", "us", "lower", "state task execute time (sr3_stream_task_*_proc_ns)"},
	{"runtime.state.proc_us_p99", "us", "lower", "the same, 99th percentile; a save runs inside execute"},
	{"runtime.state.queue_high_water", "count", "lower", "deepest the state task's input queue got"},
	{"runtime.state.blocked_frac", "frac", "lower", "share of the window the state task was blocked emitting into the out relay's queue"},
	{"runtime.sink.proc_us_p99", "us", "lower", "sink task execute time, 99th percentile"},
	{"runtime.source.blocked_frac", "frac", "lower", "share of the window the generator was blocked emitting into the in relay's queue"},

	{"state.put_ns", "ns", "lower", "state.MapStore.Put at the workload's value size"},
	{"state.get_ns", "ns", "lower", "state.MapStore.Get at the workload's value size"},
	{"state.snapshot_ms", "ms", "lower", "MapStore.Snapshot at keys x value_bytes"},
	{"state.restore_ms", "ms", "lower", "MapStore.Restore of that snapshot"},
	{"state.snapshot_mb", "MB", "lower", "size of that snapshot"},

	{"shard.split_ms", "ms", "lower", "shard.Split + shard.Replicate of that snapshot at the spec's shards x replicas"},
	{"shard.reassemble_ms", "ms", "lower", "shard.Reassemble of one replica set"},

	{"backend.holder_rx_mb_per_s", "MB/s", "lower", "bytes node3 read per second of window: it hosts nothing, so this is scatter plus repair traffic"},
	{"backend.holder_cpu_frac", "frac", "lower", "node3 CPU seconds per second of window"},
	{"backend.saves", "count", "higher", "state saves the window's tuples triggered (tuples / save_every)"},
	{"backend.write_amplification", "ratio", "lower", "bytes node3 read / (saves x snapshot x node3's replica share): what repair re-sends on top of the saves"},
	{"sink.gap_ms_p99", "ms", "lower", "pause between consecutive first deliveries at the sink: save stalls seen downstream"},
	{"sink.lag_samples", "count", "higher", "first deliveries in the window: the sample count behind lag_ms_p50/p99"},
	{"sink.reemitted", "count", "lower", "pairs the sink had already seen (idempotent re-emission after a recovery)"},
	{"cpu.node1_frac", "frac", "lower", "node1 (source, sink, seed) CPU seconds per second of window"},
	{"cpu.owner_frac", "frac", "lower", "CPU seconds per second of window of the process owning state at the window's start"},

	{"trace.selfheal_ms", "ms", "lower", "seed span: last heartbeat -> adoption ACKed"},
	{"trace.detect_ms", "ms", "lower", "seed span: last heartbeat -> declared dead"},
	{"trace.adopt_ms", "ms", "lower", "seed span: adopt RPC"},
	{"trace.recover_ms", "ms", "lower", "adopter span: build the cell, fetch, merge, restore, replay"},
	{"trace.fetch_ms", "ms", "lower", "adopter spans: star fetch from every live member, summed"},
	{"trace.merge_ms", "ms", "lower", "adopter span: version selection + reassembly"},
	{"trace.replay_ms", "ms", "lower", "adopter span: input-log replay"},
	{"trace.flow_ms", "ms", "lower", "first replayed frame: adopter send -> node1 ingress"},

	{"recovery.save_ms", "ms", "lower", "recovery.Manager.Save of that snapshot over TCP nettransport, 5 dht nodes"},
	{"recovery.star_ms", "ms", "lower", "Manager.RecoverDirect, star"},
	{"recovery.line_ms", "ms", "lower", "Manager.RecoverDirect, line"},
	{"recovery.tree_ms", "ms", "lower", "Manager.RecoverDirect, tree"},

	{"obs.scrape_ms", "ms", "lower", "serving /metrics on node1 at the window's end"},
	{"obs.trace_overhead_frac", "frac", "lower", "traced / untraced cpu_us_per_tuple - 1, against the last untraced run of the workload in this checkout (0 if none)"},
}
