package metrics

import "strings"

// helpCatalog maps the standard SR3 metric names to their # HELP text.
// Recording sites create instruments by name with no registration
// ceremony, so descriptions live here (plus Registry.SetHelp for ad-hoc
// metrics) instead of at every call site.
var helpCatalog = map[string]string{
	// Stream runtime (internal/stream), runtime-wide families.
	"sr3_stream_tuples_in_total":       "Tuples enqueued to task input channels across the runtime.",
	"sr3_stream_tuples_out_total":      "Tuples emitted by bolt executors.",
	"sr3_stream_acks_total":            "Tuples fully processed (acked) by bolt executors.",
	"sr3_stream_replays_total":         "Tuples re-executed from input logs during task recovery.",
	"sr3_stream_spout_tuples_total":    "Tuples produced by spouts.",
	"sr3_stream_proc_ns":               "Per-tuple bolt processing latency in nanoseconds, each tuple counted at the mean of the run it executed in.",
	"sr3_stream_emit_blocked_ns_total": "Nanoseconds emitters spent blocked on full input channels (backpressure).",
	"sr3_stream_execute_errors_total":  "Bolt Execute calls that returned an error.",
	"sr3_stream_shed_total":            "Data tuples dropped by queue policy or degraded-mode admission control.",
	"sr3_stream_degraded":              "1 while the runtime is in degraded-service mode (shedding ingest), else 0.",
	"sr3_stream_emit_block_wait_ns":    "Per-push wait on a full bounded task queue in nanoseconds (backpressure histogram).",
	"sr3_stream_input_log_tuples":      "Tuples held in task input logs for replay: everything since the last save in process, 0 on a daemon (the sender's relay window is its log).",
	// DHT overlay (internal/dht).
	"sr3_dht_route_hops":              "Overlay hops per routed request, recorded at the origin node.",
	"sr3_dht_routes_total":            "Routed requests originated by this node.",
	"sr3_dht_route_failures_total":    "Routed requests that exhausted every forwarding attempt.",
	"sr3_dht_leaf_learned_total":      "Nodes newly admitted to the leaf-set candidate pool (churn in).",
	"sr3_dht_leaf_forgotten_total":    "Nodes purged from local state after being observed dead (churn out).",
	"sr3_dht_leaf_repairs_total":      "Leaf-set repair requests issued to refill depleted halves.",
	"sr3_dht_stored_bytes":            "Bytes of KV state (root copies and replicas) held by this node.",
	"sr3_dht_stored_keys":             "KV records (state shards, placements) held by this node.",
	"sr3_scribe_repairs_total":        "Multicast-tree re-join attempts after a parent death.",
	"sr3_net_dials_total":             "TCP dial attempts (including retries).",
	"sr3_net_dial_retries_total":      "TCP dial attempts beyond the first for one call.",
	"sr3_net_dial_failures_total":     "Calls whose dial retry policy was exhausted.",
	"sr3_net_io_timeouts_total":       "Request/reply exchanges aborted by the I/O deadline.",
	"sr3_net_calls_total":             "Request/reply calls issued through the TCP transport.",
	"sr3_net_breaker_fastfails_total": "Outbound calls rejected locally by an open circuit breaker (no dial attempted).",
	"sr3_net_breaker_opens_total":     "Circuit-breaker open transitions (consecutive transport failures toward a peer).",
	"sr3_net_retry_suppressed_total":  "Dial retries refused by the transport's retry budget (empty token bucket).",
	"sr3_net_overload_rejected_total": "Inbound ingest-class requests rejected while this node was in degraded-service mode.",
	"sr3_flight_events_total":         "Events recorded by the flight recorder.",
	"sr3_flight_events_dropped_total": "Flight-recorder events overwritten by ring-buffer wraparound.",
	// What protection holds in memory on a cluster node (internal/cluster),
	// sampled at scrape.
	"sr3_recovery_held_bytes":             "Bytes of shard replicas stored on this node, by retained version: cur is each app's newest, prev the one it superseded (zero once the successor's publication arrived).",
	"sr3_cluster_retained_snapshot_bytes": "Bytes of this node's own tasks' latest snapshots, retained for repair; the node's own replicas are views of them.",
	// Cluster node liveness (internal/cluster), present on every member
	// so a federated scrape always carries at least these families.
	"sr3_node_up":          "1 while this sr3node process is running (liveness baseline for federation).",
	"sr3_node_incarnation": "Monotonic incarnation of this member name; bumps on crash-and-rejoin.",
}

// helpRule describes one generated metric family whose names embed an
// identity (a task key, a message kind, a phase): any name matching the
// prefix and suffix gets the family's help text.
type helpRule struct {
	prefix, suffix, help string
}

var helpRules = []helpRule{
	{"sr3_stream_task_", "_tuples_in_total", "Tuples enqueued to this task's input channel."},
	{"sr3_stream_task_", "_tuples_out_total", "Tuples emitted by this task."},
	{"sr3_stream_task_", "_acks_total", "Tuples fully processed (acked) by this task."},
	{"sr3_stream_task_", "_replays_total", "Tuples re-executed from this task's input log during recovery."},
	{"sr3_stream_task_", "_proc_ns", "Per-tuple processing latency of this task in nanoseconds, each tuple counted at the mean of the run it executed in."},
	{"sr3_stream_task_", "_queue_depth", "Input-queue depth in tuples sampled at the last push (backpressure signal)."},
	{"sr3_stream_task_", "_queue_high_water", "Highest input-queue depth observed since start, in tuples."},
	{"sr3_stream_task_", "_state_bytes", "Size of this task's last saved state snapshot in bytes."},
	{"sr3_stream_task_", "_emit_blocked_ns_total", "Nanoseconds senders spent blocked on this task's full input channel."},
	{"sr3_stream_task_", "_shed_total", "Data tuples dropped at this task's queue by shed policy or degraded-mode admission."},
	{"sr3_stream_task_", "_emit_block_wait_ns", "Per-push wait on this task's full bounded queue in nanoseconds."},
	{"sr3_dht_msg_", "_total", "Inbound overlay messages of this kind handled by the node."},
	{"sr3_scribe_msg_", "_total", "Inbound Scribe multicast messages of this kind handled by the layer."},
	{"sr3_phase_", "_ns", "Recovery-pipeline phase latency in nanoseconds (one histogram per phase)."},
	{"sr3_phase_", "_total", "Recovery-pipeline phase completions."},
	// Cross-process flow edges (internal/cluster): the name embeds the
	// <from>__<to> component edge; recorded at the ingress node.
	{"sr3_cluster_edge_hop_ns_", "", "Wire latency of batch frames on this component edge (origin send timestamp to ingress receive) in nanoseconds."},
	{"sr3_cluster_edge_lag_ns_", "", "End-to-end event-time lag of the oldest tuple per batch frame on this component edge in nanoseconds."},
	{"sr3_cluster_edge_", "_frames_total", "Batch frames received on this component edge."},
	{"sr3_cluster_edge_", "_tuples_total", "Tuples received on this component edge."},
}

// catalogHelp resolves the built-in help text for a metric name, or "".
func catalogHelp(name string) string {
	if h, ok := helpCatalog[name]; ok {
		return h
	}
	for _, r := range helpRules {
		if strings.HasPrefix(name, r.prefix) && strings.HasSuffix(name, r.suffix) {
			return r.help
		}
	}
	return ""
}

// escapeHelp escapes a # HELP line body per the text exposition format
// (backslash and newline are the only escaped characters).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value per the text exposition format.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
