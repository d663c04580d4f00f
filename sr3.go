// Package sr3 is the public API of the SR3 reproduction: a customizable
// state-recovery framework for stateful stream processing systems
// (Xu et al., "SR3: Customizable Recovery for Stateful Stream Processing
// Systems", Middleware 2020).
//
// SR3 protects large distributed operator state without a central
// master: each state is split into m shards × r replicas scattered over
// a Pastry-style DHT ring, and lost state is rebuilt by one of three
// customizable mechanisms — star, line, or tree — chosen per
// application by the §3.7 selection heuristic or pinned explicitly via
// the Table 2 API (StarDefine / LineDefine / TreeDefine).
//
// A Framework bundles the whole substrate (overlay, shard managers and
// recovery managers) in one process; the stream runtime plugs into it
// through Backend().
package sr3

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/metrics"
	"sr3/internal/obs"
	"sr3/internal/recovery"
	"sr3/internal/shard"
	"sr3/internal/stream"
	"sr3/internal/supervise"
)

// Mechanism selects a recovery structure (star/line/tree).
type Mechanism = recovery.Mechanism

// Mechanisms.
const (
	Star = recovery.Star
	Line = recovery.Line
	Tree = recovery.Tree
)

// Options are the per-mechanism tuning knobs.
type Options = recovery.Options

// NodeID identifies an overlay node.
type NodeID = id.ID

// Shard is one replicated fragment of a state snapshot.
type Shard = shard.Shard

// Config sizes a Framework.
type Config struct {
	// Nodes is the overlay size (default 64).
	Nodes int
	// Seed makes node IDs and placement deterministic.
	Seed int64
	// DefaultShards and DefaultReplicas apply when an app has not called
	// StateSplit/…Define with its own values (defaults 8 and 2).
	DefaultShards   int
	DefaultReplicas int
	// Now supplies version timestamps (defaults to wall clock).
	Now func() int64
	// Tracer records structured spans for every recovery the framework
	// runs (manual Recover calls and supervised self-heals alike). Nil
	// disables tracing at zero cost. See NewTracer / NewTraceCollector.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 64
	}
	if c.DefaultShards <= 0 {
		c.DefaultShards = 8
	}
	if c.DefaultReplicas <= 0 {
		c.DefaultReplicas = 2
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixMilli() }
	}
	return c
}

// Framework errors.
var (
	ErrUnknownApp  = errors.New("sr3: no state saved under this name")
	ErrBadArgument = errors.New("sr3: invalid argument")
)

type appConfig struct {
	mechanism Mechanism // 0 = use selection heuristic
	options   Options
	shards    int
	replicas  int
	lastSize  int64
}

// Framework is an in-process SR3 deployment: DHT overlay + per-node
// shard managers + mechanism registry.
type Framework struct {
	cfg     Config
	ring    *dht.Ring
	cluster *recovery.Cluster
	flight  *obs.FlightRecorder // always-on bounded event journal

	mu         sync.Mutex
	apps       map[string]*appConfig
	sup        *supervise.Supervisor // non-nil while supervised mode is active
	clusterReg *metrics.ClusterRegistry
	rts        []*stream.Runtime // runtimes bound via SuperviseRuntime (debug view)
}

// New builds the overlay and attaches SR3 managers to every node.
func New(cfg Config) (*Framework, error) {
	cfg = cfg.withDefaults()
	// The paper's leaf set of 24; KVReplicas guards the placement records:
	// they must survive the failure of their own KV root, not just the
	// state owner's.
	ring, err := dht.NewRing(dht.DefaultConfig(), cfg.Seed, cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("sr3: build overlay: %w", err)
	}
	cluster := recovery.NewCluster(ring)
	cluster.SetTracer(cfg.Tracer)
	return &Framework{
		cfg:     cfg,
		ring:    ring,
		cluster: cluster,
		flight:  obs.NewFlightRecorder(obs.DefaultFlightCap),
		apps:    make(map[string]*appConfig),
	}, nil
}

// Nodes returns all overlay node IDs.
func (f *Framework) Nodes() []NodeID { return f.ring.IDs() }

// FailNode crashes one overlay node (failure injection).
func (f *Framework) FailNode(n NodeID) { f.ring.Fail(n) }

// MaintenanceRound runs one keep-alive round on every live node.
func (f *Framework) MaintenanceRound() { f.ring.MaintenanceRound() }

// OwnerOf returns the node currently owning an app's state.
func (f *Framework) OwnerOf(app string) (NodeID, error) {
	anyNode, err := f.ring.AnyLive()
	if err != nil {
		return NodeID{}, fmt.Errorf("sr3: %w", err)
	}
	p, err := f.cluster.Manager(anyNode.ID()).LookupPlacement(app)
	if err != nil {
		return NodeID{}, fmt.Errorf("%w: %v", ErrUnknownApp, err)
	}
	return p.Owner, nil
}

// Backend returns a stream-runtime state backend that saves and recovers
// through this framework. Mechanism 0 engages the selection heuristic.
func (f *Framework) Backend(mech Mechanism, shards, replicas int) *stream.SR3Backend {
	if shards <= 0 {
		shards = f.cfg.DefaultShards
	}
	if replicas <= 0 {
		replicas = f.cfg.DefaultReplicas
	}
	b := stream.NewSR3Backend(f.cluster, shards, replicas)
	b.Mechanism = mech
	return b
}

func (f *Framework) app(name string) *appConfig {
	ac, ok := f.apps[name]
	if !ok {
		ac = &appConfig{
			shards:   f.cfg.DefaultShards,
			replicas: f.cfg.DefaultReplicas,
			options:  recovery.DefaultOptions(),
		}
		f.apps[name] = ac
	}
	return ac
}
