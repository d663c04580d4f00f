// Package cluster turns the in-process SR3 stream runtime into a real
// multi-process system: sr3node daemons join a seed over TCP, host the
// stream components a declarative topology spec assigns them, bridge
// cross-process edges with batch-codec tuple streams, scatter operator
// state to peer processes on every save, and recover it — both through
// internal/recovery's Manager, run over the cluster view — when the
// control plane moves a dead node's components to a survivor. The package
// also ships the local playground launcher the process-level e2e harness
// and the CI cluster-smoke job drive.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sr3/internal/metrics"
	"sr3/internal/nettransport"
	"sr3/internal/obs"
	"sr3/internal/simnet"
	"sr3/internal/stream"
)

// Node is one sr3node daemon: a cluster member hosting zero or more
// cells (partial stream runtimes) plus this process's slice of its
// peers' scattered state (held by the backend's recovery.Manager). The
// seed node additionally embeds the control plane.
type Node struct {
	cfg    NodeConfig
	logger *log.Logger

	spec        *Spec
	incarnation atomic.Int64 // atomic: rejoin bumps it while RPCs read it
	advertise   string

	clusterReg *metrics.ClusterRegistry
	reg        *metrics.Registry
	flight     *obs.FlightRecorder
	// tracer records this node's recovery phases into spans (sinked to
	// the local registry's per-phase histograms and the spans collector);
	// its ID base is derived from the node name, so spans minted here
	// never collide with another process's when the seed stitches traces.
	tracer *obs.Tracer
	spans  *obs.Collector

	backend *scatterBackend

	// net is the client and server of every 'C' connection: the one
	// exchange, its buffer pool and its sr3_net_* counters. Its registry
	// of listeners stays empty; this node's is ln, its peers' come from
	// the view.
	net     *nettransport.Network
	ln      net.Listener
	httpSrv *obs.MetricsServer
	control *controlPlane // non-nil on the seed
	fed     *federator    // non-nil on the seed: metrics federation
	hub     *obsHub       // non-nil on the seed: trace stitch + post-mortem

	mu       sync.Mutex
	view     View // non-seed: last pulled view; seed reads the control plane
	cells    []*cell
	conns    map[net.Conn]bool
	stopping bool

	servWG sync.WaitGroup
	hbStop chan struct{}
	hbDone chan struct{}
	rpStop chan struct{}
	rpDone chan struct{}

	joined atomic.Bool // spec/view are set; adopt and flow RPCs are safe
}

// cell is one partial stream.Runtime: the subgraph of the topology this
// node hosts, with external inputs declared as sources fed by ingress
// tuple streams and external outputs bridged by egress relays.
type cell struct {
	comps     []string
	set       map[string]bool
	bolts     map[string]stream.Bolt
	relays    []*relay
	rt        *stream.Runtime
	gate      chan struct{} // closed once recovery is done: spouts may pump
	spoutStop chan struct{}
	ready     atomic.Bool
	stopOnce  sync.Once
}

// gatedSpout holds its inner spout idle until the cell's recovery
// completes, so locally sourced tuples cannot reach a task whose state
// is not yet restored.
type gatedSpout struct {
	inner  stream.Spout
	gate   <-chan struct{}
	stop   <-chan struct{}
	opened bool
}

func (g *gatedSpout) Next() (stream.Tuple, bool) {
	if !g.opened {
		select {
		case <-g.gate:
			g.opened = true
		case <-g.stop:
			return stream.Tuple{}, false
		}
	}
	return g.inner.Next()
}

// StartNode validates cfg, binds the cluster listener, joins (or, for
// the seed, forms) the cluster, builds and recovers the cells assigned
// to this node, and starts the heartbeat, repair, and HTTP surfaces.
func StartNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:        cfg,
		logger:     log.New(cfg.LogWriter, "["+cfg.Name+"] ", log.Ltime|log.Lmicroseconds),
		clusterReg: metrics.NewClusterRegistry(),
		flight:     obs.NewFlightRecorder(4096),
		conns:      map[net.Conn]bool{},
		hbStop:     make(chan struct{}),
		hbDone:     make(chan struct{}),
		rpStop:     make(chan struct{}),
		rpDone:     make(chan struct{}),
	}
	n.incarnation.Store(time.Now().UnixNano())
	n.reg = n.clusterReg.Node(cfg.Name)
	// Baseline liveness families: even a node hosting nothing (fresh
	// rejoin whose components were adopted elsewhere) federates these, so
	// every live member is visible in /metrics/cluster.
	n.reg.Gauge("sr3_node_up").Set(1)
	n.reg.Gauge("sr3_node_incarnation").Set(n.incarnation.Load())
	n.spans = obs.NewCollector()
	n.tracer = obs.New(obs.MultiSink{obs.NewMetricsSink(n.reg, ""), n.spans},
		obs.WithIDBase(obs.IDBase(cfg.Name)))
	n.backend = newScatterBackend(n)
	n.registerHandlers()
	n.net = nettransport.New()
	n.net.SetMetrics(n.reg)
	n.net.SetIOTimeout(rpcTimeout)
	// One dial per call: every caller owns a retry loop already (join,
	// heartbeat tick, runtime re-save, failover ladder).
	n.net.SetDialRetryPolicy(nettransport.DialRetryPolicy{Attempts: 1})

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", cfg.Listen, err)
	}
	n.ln = ln
	n.advertise = cfg.Advertise
	if n.advertise == "" {
		n.advertise = ln.Addr().String()
	}
	n.servWG.Add(1)
	go n.serve()

	if err := n.bootstrap(); err != nil {
		n.shutdownTransport()
		return nil, err
	}
	if n.fed != nil {
		n.fed.start()
	}
	n.joined.Store(true)
	if w := replayWindowWarning(n.spec.SaveEvery, cfg.ReplayBuffer); w != "" {
		n.logf("warning: %s", w)
		n.flight.Note(obs.FlightConfigWarn, cfg.Name, n.spec.Name, w, nil)
	}

	// Build and recover this node's initial cell from the *current*
	// assignment (which is the spec assignment on a fresh cluster, and
	// whatever the control plane says on a crash-and-rejoin).
	if comps := n.assignedComponents(); len(comps) > 0 {
		c, err := n.buildCell(comps)
		if err != nil {
			n.shutdownTransport()
			return nil, err
		}
		n.mu.Lock()
		n.cells = append(n.cells, c)
		n.mu.Unlock()
		if err := n.startCell(c, obs.SpanContext{}); err != nil {
			n.shutdownTransport()
			return nil, err
		}
	}

	if n.control == nil {
		go n.heartbeatLoop()
	} else {
		close(n.hbDone)
	}
	go n.repairLoop()

	if cfg.HTTPListen != "" {
		srv, err := obs.Serve(cfg.HTTPListen, obs.ServeConfig{
			Metrics: sampledMetrics{n},
			Debug:   func() any { return n.Debug() },
			Flight:  n.flight,
			Health:  n.Health,
			Extra:   n.httpExtras(),
		})
		if err != nil {
			n.logf("http: %v", err)
		} else {
			n.httpSrv = srv
		}
	}
	n.logf("up: cluster=%s http=%s seed=%v", n.advertise, n.HTTPAddr(), n.control != nil)
	return n, nil
}

// sampledMetrics is the node's /metrics: the gauges that are read rather
// than recorded are sampled, then the registry renders.
type sampledMetrics struct{ n *Node }

func (s sampledMetrics) WritePrometheus(w io.Writer) error {
	s.n.sampleGauges()
	return s.n.clusterReg.WritePrometheus(w)
}

// sampleGauges reads what protection holds in memory on this node: the
// shard replicas stored here by retained version (a prev that stays up is
// a publication that never arrived) and the snapshots the scatter backend
// retains for repair. With the replicas a node holds of its own tasks
// being views of those snapshots, the three account for a node's share of
// protect-path RSS.
func (n *Node) sampleGauges() {
	cur, prev := n.backend.mgr.ShardBytes()
	n.reg.Gauge(`sr3_recovery_held_bytes{version="cur"}`).Set(int64(cur))
	n.reg.Gauge(`sr3_recovery_held_bytes{version="prev"}`).Set(int64(prev))
	n.reg.Gauge("sr3_cluster_retained_snapshot_bytes").Set(n.backend.retainedBytes())
}

// bootstrap forms the cluster (seed) or joins it (everyone else).
func (n *Node) bootstrap() error {
	if n.cfg.Seed == "" {
		spec, err := n.cfg.LoadSpec()
		if err != nil {
			return err
		}
		n.spec = spec
		n.control = newControlPlane(n, spec)
		// The federation and trace-stitch surfaces must exist before the
		// monitor loop runs: a sweep may trigger a post-mortem.
		n.fed = newFederator(n)
		n.hub = newObsHub(n)
		if _, err := n.control.handleJoin(&joinReq{
			Name: n.cfg.Name, Addr: n.advertise, HTTP: n.cfg.HTTPListen,
			Incarnation: n.incarnation.Load(),
		}); err != nil {
			return err
		}
		n.control.start()
		return nil
	}
	deadline := time.Now().Add(n.cfg.JoinTimeout)
	// The seed is usually a few milliseconds from listening: retry from
	// joinBackoffMin, doubling to joinBackoffMax, so when this node joins
	// is not decided by a fixed sleep and the processes' start order.
	for backoff := joinBackoffMin; ; backoff = min(2*backoff, joinBackoffMax) {
		resp, err := n.join()
		if err == nil {
			n.spec = &resp.Spec
			n.mu.Lock()
			n.view = resp.View
			n.mu.Unlock()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: join %s: %w", n.cfg.Seed, err)
		}
		time.Sleep(backoff)
	}
}

// The join retry's backoff range.
const (
	joinBackoffMin = 2 * time.Millisecond
	joinBackoffMax = 100 * time.Millisecond
)

// join asks the seed to admit this node under its current incarnation.
func (n *Node) join() (*joinResp, error) {
	return call[joinResp](n, n.cfg.Seed, simnet.Message{Kind: kindJoin, Payload: &joinReq{
		Name: n.cfg.Name, Addr: n.advertise, HTTP: n.cfg.HTTPListen,
		Incarnation: n.incarnation.Load(),
	}}, rpcTimeout)
}

// Name returns the node's cluster identity.
func (n *Node) Name() string { return n.cfg.Name }

// Addr returns the advertised cluster address.
func (n *Node) Addr() string { return n.advertise }

// HTTPAddr returns the bound metrics/debug address ("" when disabled).
func (n *Node) HTTPAddr() string {
	if n.httpSrv == nil {
		return ""
	}
	return n.httpSrv.Addr()
}

// IsSeed reports whether this node embeds the control plane.
func (n *Node) IsSeed() bool { return n.control != nil }

// Health is the /healthz readiness probe: ready means joined and every
// component the current view assigns here is hosted by a running cell.
// During an adoption the adopter reports unready until recovery
// completes, which is exactly when an orchestrator should hold traffic.
func (n *Node) Health() error {
	if !n.joined.Load() {
		return fmt.Errorf("not joined")
	}
	for _, comp := range n.assignedComponents() {
		if n.cellFor(comp) == nil {
			return fmt.Errorf("component %s assigned but not running", comp)
		}
	}
	return nil
}

// httpExtras mounts the seed-only cluster observability surfaces; nil
// on non-seed nodes.
func (n *Node) httpExtras() map[string]http.HandlerFunc {
	if n.control == nil {
		return nil
	}
	return map[string]http.HandlerFunc{
		"/metrics/cluster": func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := n.fed.scrape(w); err != nil {
				n.logf("cluster scrape: %v", err)
			}
		},
		"/debug/sr3/cluster": func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(n.fed.clusterDebug())
		},
		"/debug/sr3/trace": func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			if err := n.hub.writeTraces(w); err != nil {
				n.logf("trace dump: %v", err)
			}
		},
		"/debug/sr3/postmortem": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			if r.URL.Query().Get("last") != "" {
				if pm := n.hub.lastPostMortem(); pm != nil {
					_, _ = w.Write(pm)
					return
				}
			}
			_, _ = w.Write(n.hub.postMortem("on-demand"))
		},
	}
}

func (n *Node) logf(format string, args ...any) {
	n.logger.Printf(format, args...)
}

// currentView returns the freshest view this node can see.
func (n *Node) currentView() View {
	if n.control != nil {
		return n.control.snapshotView()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.clone()
}

// View exposes the current membership/assignment snapshot.
func (n *Node) View() View { return n.currentView() }

func (n *Node) assignedComponents() []string {
	v := n.currentView()
	var out []string
	for _, c := range n.spec.Components {
		if v.Assign[c.ID] == n.cfg.Name {
			out = append(out, c.ID)
		}
	}
	return out
}

// ownerOf resolves the live owner of a component; empty strings while
// the component is orphaned (its relay retries until reassignment).
func (n *Node) ownerOf(comp string) (name, addr string) {
	v := n.currentView()
	owner := v.Assign[comp]
	m := v.member(owner)
	if m == nil || !m.Alive {
		return "", ""
	}
	if m.Name == n.cfg.Name {
		return m.Name, n.advertise
	}
	return m.Name, m.Addr
}

func (n *Node) liveMembersView() []Member {
	v := n.currentView()
	ms := v.liveMembers()
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms
}

// buildCell materializes the partial runtime for one component set:
// local components are declared as-is, remote upstream components
// become external sources (fed by ingress streams), and every edge to a
// remote subscriber gets an egress relay.
func (n *Node) buildCell(compIDs []string) (*cell, error) {
	c := &cell{
		set:       map[string]bool{},
		bolts:     map[string]stream.Bolt{},
		gate:      make(chan struct{}),
		spoutStop: make(chan struct{}),
	}
	for _, id := range compIDs {
		c.set[id] = true
	}
	topo := stream.NewTopology(n.spec.Name)
	sources := map[string]bool{}
	for i := range n.spec.Components {
		comp := &n.spec.Components[i]
		if !c.set[comp.ID] {
			continue
		}
		c.comps = append(c.comps, comp.ID)
		kind := componentKinds[comp.Kind]
		if kind.spout {
			sp, err := kind.buildSpout(*comp, c.spoutStop)
			if err != nil {
				return nil, fmt.Errorf("cluster: build %s: %w", comp.ID, err)
			}
			if err := topo.AddSpout(comp.ID, &gatedSpout{inner: sp, gate: c.gate, stop: c.spoutStop}); err != nil {
				return nil, err
			}
			continue
		}
		bolt, err := kind.buildBolt(*comp)
		if err != nil {
			return nil, fmt.Errorf("cluster: build %s: %w", comp.ID, err)
		}
		c.bolts[comp.ID] = bolt
		bb := topo.AddBolt(comp.ID, bolt, comp.Parallel)
		for _, in := range comp.Inputs {
			if !c.set[in.From] && !sources[in.From] {
				if err := topo.AddSource(in.From); err != nil {
					return nil, err
				}
				sources[in.From] = true
			}
			g, err := groupingOf(in)
			if err != nil {
				return nil, err
			}
			switch g {
			case stream.ShuffleGrouping:
				bb = bb.Shuffle(in.From)
			case stream.FieldsGrouping:
				bb = bb.Fields(in.From, in.Field)
			case stream.GlobalGrouping:
				bb = bb.Global(in.From)
			case stream.AllGrouping:
				bb = bb.All(in.From)
			}
		}
		if err := bb.Err(); err != nil {
			return nil, err
		}
	}
	for _, compID := range c.comps {
		for _, subID := range n.spec.Subscribers(compID) {
			if c.set[subID] {
				continue
			}
			r := newRelay(n, compID, subID)
			c.relays = append(c.relays, r)
			if err := topo.AddBolt(r.boltID(), r, 1).Global(compID).Err(); err != nil {
				return nil, err
			}
		}
	}
	// UpstreamReplay: a task here dies with its process, and what it
	// received since its last save comes back from the sender's relay window.
	rt, err := stream.NewRuntime(topo, stream.Config{
		Backend:         n.backend,
		SaveEveryTuples: n.spec.SaveEvery,
		ChannelDepth:    n.spec.ChannelDepth,
		UpstreamReplay:  true,
		Codec:           stream.CodecBatch,
		Metrics:         n.reg,
		Flight:          n.flight,
	})
	if err != nil {
		return nil, err
	}
	c.rt = rt
	return c, nil
}

// startCell starts the cell's executors, restores every stateful task
// from the scattered shards (kill marks the empty-state task dead, recover
// collects + restores; nothing reaches the task in between — the gate is
// shut and a flow hello is refused until ready — so no log to replay), wires
// the egress senders, and finally opens the spout gate. The tuples the
// previous incarnation took after its last save come from upstream: each
// sender's relay window re-sends what this cell has not covered.
// A valid trace context (an adoption driven by the seed's self-heal
// trace) threads the recovery through the traced paths, so fetch, merge,
// and replay surface as child spans of the cluster-wide recovery, and
// arms the egress relays to stamp replayed output with the context.
func (n *Node) startCell(c *cell, trace obs.SpanContext) error {
	c.rt.Start()
	for _, compID := range c.comps {
		bolt, ok := c.bolts[compID]
		if !ok {
			continue // spout
		}
		if _, stateful := bolt.(stream.StatefulBolt); !stateful {
			continue
		}
		comp := n.spec.Component(compID)
		for i := 0; i < comp.Parallel; i++ {
			if err := c.rt.Kill(compID, i); err != nil {
				return fmt.Errorf("cluster: kill %s[%d]: %w", compID, i, err)
			}
			// An invalid trace recovers untraced.
			if err := c.rt.RecoverTaskByKeyTraced(stream.TaskKey(n.spec.Name, compID, i), n.tracer, trace); err != nil {
				return fmt.Errorf("cluster: recover %s[%d]: %w", compID, i, err)
			}
		}
	}
	for _, r := range c.relays {
		r.setTrace(trace)
		r.start()
	}
	c.ready.Store(true)
	close(c.gate)
	n.logf("cell up: %v", c.comps)
	return nil
}

// stopCell tears one cell down: relays first (so blocked executors
// unblock and senders exit), then the spouts, then the runtime.
func (c *cell) stop() {
	c.stopOnce.Do(func() {
		c.ready.Store(false)
		for _, r := range c.relays {
			r.close()
		}
		close(c.spoutStop)
		_ = c.rt.Wait()
	})
}

// cellFor finds the ready cell hosting a component.
func (n *Node) cellFor(comp string) *cell {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.cells {
		if c.set[comp] && c.ready.Load() {
			return c
		}
	}
	return nil
}

// handleAdopt hosts a dead node's components: build a cell, recover
// their state, and only then ACK — the control plane flips routing to
// us after the ACK, so no ingress targets the cell mid-recovery.
func (n *Node) handleAdopt(req *adoptReq, parent obs.SpanContext) error {
	if !n.joined.Load() {
		return fmt.Errorf("node %s not ready", n.cfg.Name)
	}
	for _, comp := range req.Components {
		if n.cellFor(comp) != nil {
			return fmt.Errorf("component %s already hosted here", comp)
		}
	}
	n.logf("adopting %v", req.Components)
	// Recovery plans over this node's view; the seed decided on a newer one.
	if n.control == nil && req.Epoch > n.viewEpoch() {
		n.pullView()
	}
	// A traced adoption opens a local recover span parented on the seed's
	// self-heal trace: this node's fetch/merge/replay children hang off
	// it, and the span lands in the local collector for the seed's stitch.
	trace := obs.SpanContext{}
	var sp *obs.Span
	if parent.Valid() {
		sp = n.tracer.StartSpan(parent, obs.PhaseRecover)
		sp.SetStr("components", strings.Join(req.Components, ","))
		sp.SetStr("node", n.cfg.Name)
		trace = sp.Ctx()
	}
	c, err := n.buildCell(req.Components)
	if err == nil {
		// Stop snapshots the cells under the same lock: a cell is either in
		// that snapshot or never started.
		n.mu.Lock()
		if n.stopping {
			err = fmt.Errorf("node %s is stopping", n.cfg.Name)
		} else {
			n.cells = append(n.cells, c)
		}
		n.mu.Unlock()
	}
	if err == nil {
		err = n.startCell(c, trace)
	}
	sp.EndErr(err)
	return err
}

// serve accepts cluster connections: 'C' exchanges, 'T' tuple streams.
func (n *Node) serve() {
	defer n.servWG.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.stopping {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.conns[conn] = true
		n.mu.Unlock()
		n.servWG.Add(1)
		go n.handleConn(conn)
	}
}

func (n *Node) handleConn(conn net.Conn) {
	defer n.servWG.Done()
	defer func() {
		_ = conn.Close()
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
	}()
	var magic [1]byte
	_ = conn.SetReadDeadline(time.Now().Add(rpcTimeout))
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return
	}
	switch magic[0] {
	case nettransport.Magic:
		n.net.ServeConn(conn, n.backend.overlay.dispatch)
	case magicFlow:
		_ = conn.SetReadDeadline(time.Time{})
		n.handleFlow(conn)
	}
}

// handleFlow serves one ingress tuple stream: hello, then framed batches
// (36-byte flow header + batch-codec body) injected whole into the
// hosting cell under the edge's grouping. Decoded tuples own their memory, so
// the pooled frame buffer is recycled right after decode. Each frame's
// origin timestamps feed the edge's per-hop wire-latency and event-time
// lag histograms; the first traced frame on a connection records one
// retroactive flow span parented on the sender's recovery context,
// stitching this process into the recovery's distributed trace.
func (n *Node) handleFlow(conn net.Conn) {
	hello, err := readFlowHello(conn)
	if err != nil {
		return
	}
	// Answer before any frame is read: a relay that wrote into a peer with
	// no cell for the edge would count those frames sent, and with nothing
	// more to send never learn otherwise.
	if n.cellFor(hello.DestComp) == nil {
		_, _ = conn.Write([]byte{flowRefused})
		return
	}
	if _, err := conn.Write([]byte{flowAccepted}); err != nil {
		return
	}
	edge := hello.FromComp + "__" + hello.DestComp
	hopHist := n.reg.Histogram("sr3_cluster_edge_hop_ns_" + edge)
	lagHist := n.reg.Histogram("sr3_cluster_edge_lag_ns_" + edge)
	frames := n.reg.Counter("sr3_cluster_edge_" + edge + "_frames_total")
	tuplesC := n.reg.Counter("sr3_cluster_edge_" + edge + "_tuples_total")
	flowSpanDone := false
	bc := nettransport.NewBatchConn(conn, 30*time.Second)
	for {
		body, free, err := bc.ReadBatch()
		if err != nil {
			return
		}
		sendNs, oldestNs, tc, payload, err := parseFrameHeader(body)
		if err != nil {
			free()
			n.logf("flow %s->%s: %v", hello.FromComp, hello.DestComp, err)
			return
		}
		tuples, class, err := stream.DecodeTupleBatch(payload)
		free()
		if err != nil {
			n.logf("flow %s->%s: corrupt batch: %v", hello.FromComp, hello.DestComp, err)
			return
		}
		now := time.Now().UnixNano()
		if d := now - sendNs; d >= 0 {
			hopHist.Record(d)
		}
		if d := now - oldestNs; oldestNs > 0 && d >= 0 {
			lagHist.Record(d)
		}
		frames.Inc()
		tuplesC.Add(int64(len(tuples)))
		if tc.Valid() && !flowSpanDone {
			// Retroactive: the frame carries the sender's recovery context,
			// so the span covers origin-send to ingress-inject and parents
			// under the recovery — the third process joins the trace here.
			flowSpanDone = true
			n.tracer.RecordSpan(tc, obs.PhaseFlow,
				time.Unix(0, sendNs), time.Unix(0, now),
				obs.Str("edge", hello.FromComp+"->"+hello.DestComp),
				obs.Str("from", hello.FromNode))
		}
		c := n.cellFor(hello.DestComp)
		if c == nil {
			return // not (or no longer) hosting: sender re-resolves
		}
		if err := c.rt.InjectBatch(hello.FromComp, hello.DestComp, tuples, class); err != nil {
			n.logf("flow %s->%s: %v", hello.FromComp, hello.DestComp, err)
			return
		}
	}
}

// heartbeatLoop keeps the seed convinced we are alive and pulls a fresh
// view whenever the advertised epoch moves. A rejection means the seed
// declared us dead — rejoin under a new incarnation and drop any cells
// whose components have been moved elsewhere.
func (n *Node) heartbeatLoop() {
	defer close(n.hbDone)
	tick := time.NewTicker(n.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-n.hbStop:
			return
		case <-tick.C:
		}
		resp, err := call[heartbeatResp](n, n.cfg.Seed, simnet.Message{Kind: kindHeartbeat, Payload: &heartbeatReq{
			Name: n.cfg.Name, Incarnation: n.incarnation.Load(), Epoch: n.viewEpoch(),
		}}, rpcTimeout)
		if err != nil {
			if errors.Is(err, ErrRejoin) {
				n.rejoin()
			}
			continue // seed unreachable: keep beating
		}
		if resp.Epoch > n.viewEpoch() {
			n.pullView()
		}
	}
}

func (n *Node) viewEpoch() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.Epoch
}

func (n *Node) pullView() {
	resp, err := call[viewResp](n, n.cfg.Seed, simnet.Message{Kind: kindView, Payload: &viewReq{}}, rpcTimeout)
	if err != nil {
		return
	}
	n.mu.Lock()
	if resp.View.Epoch > n.view.Epoch {
		n.view = resp.View
	}
	n.mu.Unlock()
}

// rejoin re-enters the cluster after being declared dead. Components
// that were adopted elsewhere while we were "dead" are torn down here:
// hosting them further would double-run spouts and double-count state.
func (n *Node) rejoin() {
	n.incarnation.Store(time.Now().UnixNano())
	n.reg.Gauge("sr3_node_incarnation").Set(n.incarnation.Load())
	resp, err := n.join()
	if err != nil {
		n.logf("rejoin failed: %v", err)
		return
	}
	n.mu.Lock()
	n.view = resp.View
	assign := n.view.Assign
	var stale []*cell
	var keep []*cell
	for _, c := range n.cells {
		mine := false
		for _, comp := range c.comps {
			if assign[comp] == n.cfg.Name {
				mine = true
			}
		}
		if mine {
			keep = append(keep, c)
		} else {
			stale = append(stale, c)
		}
	}
	n.cells = keep
	n.mu.Unlock()
	for _, c := range stale {
		n.logf("rejoin: dropping relocated cell %v", c.comps)
		c.stop()
	}
	// Orphaned snapshots must not be re-scattered by our repair loop —
	// the adopter owns those tasks now.
	var orphaned []string
	for _, c := range stale {
		for _, comp := range c.comps {
			decl := n.spec.Component(comp)
			for i := 0; i < decl.Parallel; i++ {
				orphaned = append(orphaned, stream.TaskKey(n.spec.Name, comp, i))
			}
		}
	}
	n.backend.forget(orphaned)
	n.logf("rejoined (incarnation %d, epoch %d)", n.incarnation.Load(), n.viewEpoch())
}

// repairLoop periodically re-scatters every locally protected snapshot
// so replication converges back after deaths, adoptions, and rejoins.
func (n *Node) repairLoop() {
	defer close(n.rpDone)
	tick := time.NewTicker(n.cfg.RepairInterval)
	defer tick.Stop()
	for {
		select {
		case <-n.rpStop:
			return
		case <-tick.C:
			n.backend.repairTick()
		}
	}
}

// shutdownTransport closes the listener and every open connection and
// waits for the serve goroutines.
func (n *Node) shutdownTransport() {
	n.mu.Lock()
	n.stopping = true
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	_ = n.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	n.servWG.Wait()
}

// Stop shuts the node down cleanly: leave the cluster, stop the
// background loops, quiesce ingress, then drain and stop every cell.
// Safe to call once; the daemon calls it on SIGTERM/SIGINT.
func (n *Node) Stop() {
	n.logf("stopping")
	if n.control == nil {
		// The heartbeat loop stops before the leave RPC: a heartbeat
		// racing the leave would see "declared dead" and rejoin.
		close(n.hbStop)
		<-n.hbDone
		_, _ = call[leaveResp](n, n.cfg.Seed, simnet.Message{Kind: kindLeave, Payload: &leaveReq{
			Name: n.cfg.Name, Incarnation: n.incarnation.Load(),
		}}, rpcTimeout)
	}
	close(n.rpStop)
	<-n.rpDone
	if n.fed != nil {
		n.fed.close()
	}
	if n.control != nil {
		n.control.close()
	}
	n.mu.Lock()
	n.stopping = true // from here an adoption is refused, not started
	cells := append([]*cell(nil), n.cells...)
	n.mu.Unlock()
	// Relays and spouts stop first so executors cannot block on a full
	// egress window; ingress conns die with the transport next, after
	// which the runtimes drain whatever was already admitted — saving none
	// of it, since its output goes nowhere.
	n.backend.overlay.closed.Store(true)
	for _, c := range cells {
		c.ready.Store(false)
		for _, r := range c.relays {
			r.close()
		}
	}
	n.shutdownTransport()
	for _, c := range cells {
		c.stop()
	}
	if n.httpSrv != nil {
		_ = n.httpSrv.Close()
	}
	n.logf("stopped")
}

// NodeDebug is the /debug/sr3 introspection snapshot of one daemon.
type NodeDebug struct {
	Node        string            `json:"node"`
	Incarnation int64             `json:"incarnation"`
	Seed        bool              `json:"seed"`
	Epoch       int64             `json:"epoch"`
	Members     []Member          `json:"members"`
	Assign      map[string]string `json:"assign"`
	Cells       []CellDebug       `json:"cells"`
	ShardsHeld  map[string]int    `json:"shards_held"`
}

// CellDebug describes one hosted cell.
type CellDebug struct {
	Components []string                  `json:"components"`
	Tasks      []stream.TaskStats        `json:"tasks"`
	Counters   map[string]CounterSummary `json:"counters,omitempty"`
	Sinks      map[string]SinkSummary    `json:"sinks,omitempty"`
}

// Debug builds the live introspection snapshot served on /debug/sr3.
func (n *Node) Debug() NodeDebug {
	v := n.currentView()
	d := NodeDebug{
		Node:        n.cfg.Name,
		Incarnation: n.incarnation.Load(),
		Seed:        n.control != nil,
		Epoch:       v.Epoch,
		Members:     v.Members,
		Assign:      v.Assign,
		ShardsHeld:  n.backend.mgr.ShardsHeld(),
	}
	n.mu.Lock()
	cells := append([]*cell(nil), n.cells...)
	n.mu.Unlock()
	for _, c := range cells {
		cd := CellDebug{Components: c.comps, Tasks: c.rt.Stats()}
		for id, b := range c.bolts {
			switch bt := b.(type) {
			case *counterBolt:
				if cd.Counters == nil {
					cd.Counters = map[string]CounterSummary{}
				}
				cd.Counters[id] = summarizeCounter(bt.store)
			case *sinkBolt:
				if cd.Sinks == nil {
					cd.Sinks = map[string]SinkSummary{}
				}
				cd.Sinks[id] = summarizeSink(bt.store)
			}
		}
		d.Cells = append(d.Cells, cd)
	}
	return d
}
