package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"sr3/internal/metrics"
)

// MetricsServer is the operational HTTP surface of a supervised SR3
// process (and of sr3bench runs started with -metrics): Prometheus text
// on /metrics, live-cluster JSON on /debug/sr3, the flight-recorder
// journal on /debug/sr3/flight, and the standard net/http/pprof
// endpoints under /debug/pprof/.
type MetricsServer struct {
	srv *http.Server
	ln  net.Listener
}

// DebugFunc builds the /debug/sr3 introspection snapshot. It is invoked
// per request so the view is always live; the returned value is
// JSON-encoded as the response body.
type DebugFunc func() any

// ServeConfig selects which surfaces a server exposes. Any field may be
// nil: the corresponding endpoint is simply absent (pprof is always on).
type ServeConfig struct {
	// Metrics is served on /metrics — a single *metrics.Registry or a
	// cluster-wide *metrics.ClusterRegistry.
	Metrics metrics.PrometheusWriter
	// Debug is served on /debug/sr3 as JSON.
	Debug DebugFunc
	// Flight is served on /debug/sr3/flight as JSON lines, oldest-first.
	Flight *FlightRecorder
	// Health is served on /healthz: nil error → 200 "ok", otherwise 503
	// with the error text. A readiness probe, not liveness — sr3node
	// reports healthy only once joined with every assigned cell running.
	Health func() error
	// Extra mounts additional handlers by path (the seed's federated
	// /metrics/cluster, /debug/sr3/cluster, /debug/sr3/trace and
	// /debug/sr3/postmortem surfaces ride here).
	Extra map[string]http.HandlerFunc
}

// Serve starts an HTTP server on addr (e.g. ":9090" or "127.0.0.1:0";
// the latter picks a free port — read it back via Addr) exposing the
// configured surfaces.
func Serve(addr string, cfg ServeConfig) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listen: %w", err)
	}
	return ServeListener(ln, cfg), nil
}

// ServeListener is Serve on a listener the caller bound: one that must know
// its address before the surfaces it serves exist.
func ServeListener(ln net.Listener, cfg ServeConfig) *MetricsServer {
	mux := http.NewServeMux()
	if cfg.Metrics != nil {
		reg := cfg.Metrics
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WritePrometheus(w)
		})
	}
	if cfg.Debug != nil {
		dbg := cfg.Debug
		mux.HandleFunc("/debug/sr3", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(dbg()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	if cfg.Flight != nil {
		fr := cfg.Flight
		mux.HandleFunc("/debug/sr3/flight", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = fr.WriteJSON(w)
		})
	}
	if cfg.Health != nil {
		health := cfg.Health
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			if err := health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte("ok\n"))
		})
	}
	for path, h := range cfg.Extra {
		mux.HandleFunc(path, h)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ms := &MetricsServer{
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
	go func() { _ = ms.srv.Serve(ln) }()
	return ms
}

// ServeMetrics starts a server exposing just a metrics writer (plus
// pprof) — the pre-flight-recorder entry point, kept for callers that
// only have a registry.
func ServeMetrics(addr string, reg metrics.PrometheusWriter) (*MetricsServer, error) {
	return Serve(addr, ServeConfig{Metrics: reg})
}

// Addr returns the listener's address (useful with ":0").
func (ms *MetricsServer) Addr() string { return ms.ln.Addr().String() }

// Close shuts the server down.
func (ms *MetricsServer) Close() error { return ms.srv.Close() }
