package cluster

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"time"
)

// NodeConfig configures one sr3node process. Values resolve with flag >
// environment > default precedence (ParseNodeConfig); the topology spec
// itself ships separately — the seed loads the YAML file, every other
// node receives the parsed spec in its join response.
type NodeConfig struct {
	// Name is the node's stable identity. A restarted process that
	// rejoins under the same name is the same cluster member (its
	// incarnation number increases). Defaults to the hostname.
	Name string
	// Listen is the cluster TCP address (control RPCs + tuple streams).
	// Port 0 picks a free port.
	Listen string
	// Advertise is the address peers dial; defaults to Listen with the
	// bound port filled in. Set it when Listen binds a wildcard address
	// (containers).
	Advertise string
	// HTTPListen serves /metrics, /debug/sr3, /debug/sr3/flight and
	// pprof. Empty disables the HTTP server.
	HTTPListen string
	// Seed is the seed node's cluster address. Empty means this node IS
	// the seed: it runs the control plane and must have a topology.
	Seed string
	// TopoFile is the YAML topology spec path (seed only).
	TopoFile string
	// Spec is the parsed topology; set directly by in-process tests,
	// otherwise loaded from TopoFile on the seed.
	Spec *Spec
	// Heartbeat is the node -> seed heartbeat interval (default 100ms).
	Heartbeat time.Duration
	// DeadAfter is how long the control plane waits after the last
	// heartbeat before declaring a node dead (default 8x Heartbeat).
	DeadAfter time.Duration
	// RepairInterval is the shard re-scatter period: each node
	// re-pushes its stateful tasks' last snapshot shards so holders
	// that died or rejoined converge back to full replication
	// (default 500ms).
	RepairInterval time.Duration
	// JoinTimeout bounds the initial join retry loop (default 15s).
	JoinTimeout time.Duration
	// FederateInterval is the seed's metrics-federation pull period: each
	// cycle it pulls every live member's registry snapshot for the merged
	// /metrics/cluster exposition and evicts stale members (default 1s).
	FederateInterval time.Duration
	// ReplayBuffer is the per-edge egress replay window in tuples
	// (default 65536): on reconnect a relay re-sends the retained
	// window, so recovery is exact while the gap fits in it.
	ReplayBuffer int
	// LogWriter receives the node's log lines (default os.Stderr).
	LogWriter io.Writer
}

// ErrConfig reports invalid node configuration.
var ErrConfig = errors.New("cluster: invalid node config")

func cfgErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrConfig, fmt.Sprintf(format, args...))
}

// ParseNodeConfig resolves a NodeConfig from command-line args and the
// environment: every flag falls back to its SR3_* variable, then to the
// default. args excludes the program name; getenv is os.Getenv in the
// daemon and a stub in tests.
func ParseNodeConfig(args []string, getenv func(string) string) (NodeConfig, error) {
	if getenv == nil {
		getenv = func(string) string { return "" }
	}
	fs := flag.NewFlagSet("sr3node", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var cfg NodeConfig
	var heartbeat, deadAfter, repair, joinTimeout, federate string
	var replayBuf string
	fs.StringVar(&cfg.Name, "name", getenv("SR3_NAME"), "node identity (stable across restarts; default hostname)")
	fs.StringVar(&cfg.Listen, "listen", getenv("SR3_LISTEN"), "cluster listen address (default 127.0.0.1:0)")
	fs.StringVar(&cfg.Advertise, "advertise", getenv("SR3_ADVERTISE"), "address peers dial (default: listen address)")
	fs.StringVar(&cfg.HTTPListen, "http", getenv("SR3_HTTP"), "metrics/debug HTTP address (empty disables)")
	fs.StringVar(&cfg.Seed, "seed", getenv("SR3_SEED"), "seed address (empty: this node is the seed)")
	fs.StringVar(&cfg.TopoFile, "topo", getenv("SR3_TOPO"), "topology spec YAML (seed only)")
	fs.StringVar(&heartbeat, "heartbeat", getenv("SR3_HEARTBEAT"), "heartbeat interval (default 100ms)")
	fs.StringVar(&deadAfter, "dead-after", getenv("SR3_DEAD_AFTER"), "declare a silent node dead after (default 8x heartbeat)")
	fs.StringVar(&repair, "repair", getenv("SR3_REPAIR"), "shard repair interval (default 500ms)")
	fs.StringVar(&joinTimeout, "join-timeout", getenv("SR3_JOIN_TIMEOUT"), "initial join retry budget (default 15s)")
	fs.StringVar(&federate, "federate", getenv("SR3_FEDERATE"), "seed metrics-federation pull interval (default 1s)")
	fs.StringVar(&replayBuf, "replay-buffer", getenv("SR3_REPLAY_BUFFER"), "per-edge egress replay window in tuples (default 65536)")
	if err := fs.Parse(args); err != nil {
		return cfg, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if fs.NArg() > 0 {
		return cfg, cfgErrf("unexpected positional arguments %v", fs.Args())
	}
	var err error
	if cfg.Heartbeat, err = durationOr(heartbeat, 100*time.Millisecond); err != nil {
		return cfg, cfgErrf("heartbeat: %v", err)
	}
	if cfg.DeadAfter, err = durationOr(deadAfter, 0); err != nil {
		return cfg, cfgErrf("dead-after: %v", err)
	}
	if cfg.RepairInterval, err = durationOr(repair, 500*time.Millisecond); err != nil {
		return cfg, cfgErrf("repair: %v", err)
	}
	if cfg.JoinTimeout, err = durationOr(joinTimeout, 15*time.Second); err != nil {
		return cfg, cfgErrf("join-timeout: %v", err)
	}
	if cfg.FederateInterval, err = durationOr(federate, time.Second); err != nil {
		return cfg, cfgErrf("federate: %v", err)
	}
	if replayBuf != "" {
		n, err := strconv.Atoi(replayBuf)
		if err != nil {
			return cfg, cfgErrf("replay-buffer: %v", err)
		}
		cfg.ReplayBuffer = n
	}
	return cfg, cfg.Validate()
}

func durationOr(s string, def time.Duration) (time.Duration, error) {
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d <= 0 {
		return 0, fmt.Errorf("must be positive, got %v", d)
	}
	return d, nil
}

// withDefaults fills unset fields; Validate calls it.
func (c *NodeConfig) withDefaults() {
	if c.Name == "" {
		if hn, err := os.Hostname(); err == nil {
			c.Name = hn
		}
	}
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 8 * c.Heartbeat
	}
	if c.RepairInterval <= 0 {
		c.RepairInterval = 500 * time.Millisecond
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 15 * time.Second
	}
	if c.FederateInterval <= 0 {
		c.FederateInterval = time.Second
	}
	if c.ReplayBuffer <= 0 {
		c.ReplayBuffer = 1 << 16
	}
	if c.LogWriter == nil {
		c.LogWriter = os.Stderr
	}
}

// replayWindowWarning is what a node says at start-up when the spec saves
// less often than the relay window is long ("" when the window covers a
// save interval). A task's unsaved input is retained only by its sender's
// window, which holds the last replayBuffer tuples: with saveEvery beyond
// that, a kill late in the interval finds the tuples between the last
// published version and the oldest retained one in neither place.
func replayWindowWarning(saveEvery, replayBuffer int) string {
	if saveEvery <= replayBuffer {
		return ""
	}
	return fmt.Sprintf("save_every=%d exceeds replay_buffer=%d: a kill can lose tuples that are neither in the last published version nor still retained upstream",
		saveEvery, replayBuffer)
}

// Validate applies defaults and checks the configuration is runnable.
func (c *NodeConfig) Validate() error {
	c.withDefaults()
	if c.Name == "" {
		return cfgErrf("node name is empty and hostname lookup failed")
	}
	if _, _, err := net.SplitHostPort(c.Listen); err != nil {
		return cfgErrf("listen %q: %v", c.Listen, err)
	}
	if c.Advertise != "" {
		if _, _, err := net.SplitHostPort(c.Advertise); err != nil {
			return cfgErrf("advertise %q: %v", c.Advertise, err)
		}
	}
	if c.Seed != "" {
		if _, _, err := net.SplitHostPort(c.Seed); err != nil {
			return cfgErrf("seed %q: %v", c.Seed, err)
		}
	}
	if c.HTTPListen != "" {
		if _, _, err := net.SplitHostPort(c.HTTPListen); err != nil {
			return cfgErrf("http %q: %v", c.HTTPListen, err)
		}
	}
	if c.DeadAfter < 2*c.Heartbeat {
		return cfgErrf("dead-after %v must be at least 2x heartbeat %v", c.DeadAfter, c.Heartbeat)
	}
	if c.Seed == "" && c.Spec == nil && c.TopoFile == "" {
		return cfgErrf("seed node needs a topology (-topo or Spec)")
	}
	return nil
}

// LoadSpec loads and validates the topology: the in-memory Spec when
// set, otherwise the TopoFile.
func (c *NodeConfig) LoadSpec() (*Spec, error) {
	if c.Spec != nil {
		return c.Spec, nil
	}
	if c.TopoFile == "" {
		return nil, cfgErrf("no topology spec configured")
	}
	data, err := os.ReadFile(c.TopoFile)
	if err != nil {
		return nil, cfgErrf("read topology: %v", err)
	}
	return ParseSpec(data)
}
