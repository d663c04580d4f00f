package sr3

import (
	"sort"

	"sr3/internal/metrics"
	"sr3/internal/obs"
	"sr3/internal/stream"
)

// Observability surface: structured tracing of the recovery pipeline and
// a Prometheus-text /metrics endpoint.
//
// A Tracer threads one distributed trace through each recovery: a
// "selfheal" root span (its duration is the MTTR) with "detect",
// "enqueue", "recover" (→ "plan", "fetch", "merge", "collect"),
// "replay", and "reprotect" (→ "save") children — the paper's Fig. 9
// per-phase breakdown, reconstructed from spans instead of ad-hoc
// timers. Wire a tracer in with Config.Tracer (framework-wide) or
// Options.Tracer (one Recover call); a nil tracer is a no-op with zero
// allocation on every instrumented path.
type (
	// Tracer emits spans to a TraceSink; nil means disabled.
	Tracer = obs.Tracer
	// TraceSink receives finished spans.
	TraceSink = obs.Sink
	// MetricsRegistry holds named histograms, gauges and counters and
	// renders them as Prometheus text.
	MetricsRegistry = metrics.Registry
	// ClusterRegistry merges per-node registries into one labeled
	// Prometheus scrape (label node="<id>").
	ClusterRegistry = metrics.ClusterRegistry
	// MetricsServer serves /metrics, /debug/sr3 and /debug/pprof.
	MetricsServer = obs.MetricsServer
	// FlightRecorder is the always-on bounded event journal every
	// Framework carries (see Framework.Flight).
	FlightRecorder = obs.FlightRecorder
	// FlightEvent is one flight-recorder entry.
	FlightEvent = obs.FlightEvent
	// TopologyDebug is the live view of one stream topology
	// (Runtime.DebugView / the /debug/sr3 endpoint).
	TopologyDebug = stream.TopologyDebug
)

// NewTracer builds a tracer over a sink. Pass the result in Config.Tracer
// to trace everything the framework does, or in Options.Tracer for one
// recovery.
func NewTracer(sink TraceSink) *Tracer { return obs.New(sink) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewMetricsTraceSink aggregates span durations into per-phase latency
// histograms ("sr3_phase_<phase>_ns") in reg — the bridge from traces to
// the /metrics endpoint.
func NewMetricsTraceSink(reg *MetricsRegistry) TraceSink { return obs.NewMetricsSink(reg, "") }

// ServeMetrics starts an HTTP server exposing reg as Prometheus text on
// /metrics plus net/http/pprof under /debug/pprof/. addr may be ":0" to
// pick a free port (read it back with Addr).
func ServeMetrics(addr string, reg *MetricsRegistry) (*MetricsServer, error) {
	return obs.ServeMetrics(addr, reg)
}

// EnableMetrics switches steady-state instrumentation on for the whole
// overlay: every DHT node gets route/message/leaf-set/storage instruments
// in its own per-node registry inside one ClusterRegistry, which a single
// /metrics scrape renders with node="<id>" labels. Idempotent — repeat
// calls return the same registry. Register extra registries (stream
// runtimes, recovery phase sinks) into the returned ClusterRegistry to
// fold them into the same scrape.
func (f *Framework) EnableMetrics() *ClusterRegistry {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.clusterReg == nil {
		f.clusterReg = metrics.NewClusterRegistry()
		f.ring.EnableMetrics(f.clusterReg)
	}
	return f.clusterReg
}

// Metrics returns the cluster registry installed by EnableMetrics, or nil
// when metrics are off.
func (f *Framework) Metrics() *ClusterRegistry {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.clusterReg
}

// Flight returns the framework's always-on flight recorder. Pass it to
// RuntimeConfig.Flight to journal topology starts and task kill/recover
// events alongside supervision verdicts; read it back after an incident
// with Events, WriteJSON, or the /debug/sr3/flight endpoint.
func (f *Framework) Flight() *FlightRecorder { return f.flight }

// RingNodeDebug is the /debug/sr3 view of one overlay node.
type RingNodeDebug struct {
	ID             string   `json:"id"`
	Alive          bool     `json:"alive"`
	LeafSet        []string `json:"leaf_set"`
	RoutingEntries int      `json:"routing_entries"`
}

// AppDebug is the /debug/sr3 view of one protected application state.
type AppDebug struct {
	Name      string `json:"name"`
	Mechanism string `json:"mechanism"`
	Shards    int    `json:"shards"`
	Replicas  int    `json:"replicas"`
	LastSize  int64  `json:"last_size_bytes"`
	Owner     string `json:"owner,omitempty"`
}

// DebugSnapshot is the full /debug/sr3 introspection document.
type DebugSnapshot struct {
	Nodes         int             `json:"nodes"`
	Live          int             `json:"live"`
	Supervised    bool            `json:"supervised"`
	Ring          []RingNodeDebug `json:"ring"`
	Apps          []AppDebug      `json:"apps"`
	Topologies    []TopologyDebug `json:"topologies,omitempty"`
	FlightEvents  uint64          `json:"flight_events"`
	FlightDropped uint64          `json:"flight_dropped"`
}

// DebugInfo assembles a live snapshot of the deployment: overlay
// membership with per-node leaf sets, protected app states with their
// mechanisms and current owners, bound stream topologies, and flight-
// recorder totals. ServeObservability serves it on /debug/sr3; tests and
// REPLs can call it directly.
func (f *Framework) DebugInfo() DebugSnapshot {
	f.mu.Lock()
	sup := f.sup
	rts := append([]*stream.Runtime(nil), f.rts...)
	apps := make(map[string]appConfig, len(f.apps))
	for name, ac := range f.apps {
		apps[name] = *ac
	}
	f.mu.Unlock()

	snap := DebugSnapshot{
		Supervised:    sup != nil,
		FlightEvents:  f.flight.Total(),
		FlightDropped: f.flight.Dropped(),
	}
	for _, nid := range f.ring.IDs() {
		n := f.ring.Node(nid)
		alive := f.ring.Net.Alive(nid)
		if alive {
			snap.Live++
		}
		nd := RingNodeDebug{
			ID:             nid.Short(),
			Alive:          alive,
			RoutingEntries: len(n.RoutingTableEntries()),
		}
		for _, l := range n.LeafSet() {
			nd.LeafSet = append(nd.LeafSet, l.Short())
		}
		snap.Ring = append(snap.Ring, nd)
	}
	snap.Nodes = len(snap.Ring)
	for name, ac := range apps {
		mech := "auto"
		if ac.mechanism != 0 {
			mech = ac.mechanism.String()
		}
		ad := AppDebug{
			Name:      name,
			Mechanism: mech,
			Shards:    ac.shards,
			Replicas:  ac.replicas,
			LastSize:  ac.lastSize,
		}
		if owner, err := f.OwnerOf(name); err == nil {
			ad.Owner = owner.Short()
		}
		snap.Apps = append(snap.Apps, ad)
	}
	sort.Slice(snap.Apps, func(i, j int) bool { return snap.Apps[i].Name < snap.Apps[j].Name })
	for _, rt := range rts {
		snap.Topologies = append(snap.Topologies, rt.DebugView())
	}
	return snap
}

// ServeObservability starts the framework's HTTP surface on addr
// (":0" picks a free port — read it back with Addr): Prometheus text on
// /metrics (after EnableMetrics; 404 otherwise), the live DebugInfo
// document on /debug/sr3, the flight journal on /debug/sr3/flight, and
// net/http/pprof under /debug/pprof/.
func (f *Framework) ServeObservability(addr string) (*MetricsServer, error) {
	cfg := obs.ServeConfig{
		Debug:  func() any { return f.DebugInfo() },
		Flight: f.flight,
	}
	if cr := f.Metrics(); cr != nil {
		cfg.Metrics = cr
	}
	return obs.Serve(addr, cfg)
}
