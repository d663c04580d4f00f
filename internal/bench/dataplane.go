package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/metrics"
	"sr3/internal/nettransport"
	"sr3/internal/recovery"
)

// The dataplane experiment measures the recovery data plane end to end
// over real loopback TCP sockets — actual bytes through actual kernels,
// not the virtual-time planner the figure benchmarks use. It sweeps state
// size × mechanism × fetch concurrency and reports recovery goodput, with
// Options.SequentialFetch as the A/B control: one fetch in flight, shard
// data gob-encoded inline — the pre-pipelining wire path.

// DataPlaneConfig parametrizes the sweep. The zero value selects the
// committed BENCH_dataplane.json configuration.
type DataPlaneConfig struct {
	// SizesMB are the state sizes swept, in MB (1e6 bytes).
	SizesMB []int
	// Concurrencies are the fetch-pool widths swept alongside the
	// sequential baseline.
	Concurrencies []int
	// Nodes is the TCP overlay size.
	Nodes int
	// M, R are the shard count and replication factor.
	M, R int
	// Trials is how many times each cell runs; the fastest trial is
	// reported. The default is 1 — a cold one-shot recovery, matching
	// production (recovery happens once, right after a failure, with no
	// warmed heap). Best-of-N>1 warms the allocator across trials, which
	// flatters the gob baseline by amortizing exactly the alloc/GC churn
	// the pooled zero-copy path was built to remove.
	Trials int
}

func (c DataPlaneConfig) withDefaults() DataPlaneConfig {
	if len(c.SizesMB) == 0 {
		c.SizesMB = []int{8, 64}
	}
	if len(c.Concurrencies) == 0 {
		c.Concurrencies = []int{4, 8}
	}
	if c.Nodes == 0 {
		c.Nodes = 14
	}
	if c.M == 0 {
		c.M = 8
	}
	if c.R == 0 {
		c.R = 3
	}
	if c.Trials == 0 {
		c.Trials = 1
	}
	return c
}

// DataPlaneRun is one cell of the sweep.
type DataPlaneRun struct {
	StateMB     int     `json:"state_mb"`
	Mechanism   string  `json:"mechanism"`
	Mode        string  `json:"mode"` // "seq" or "cN"
	Concurrency int     `json:"concurrency"`
	Seconds     float64 `json:"seconds"`
	GoodputMBps float64 `json:"goodput_mbps"`
	// SpeedupVsSeq is this run's goodput over the same (size, mechanism)
	// sequential baseline; 1.0 for the baseline itself.
	SpeedupVsSeq float64 `json:"speedup_vs_seq"`
	// BytesMoved is merged state payload delivered to the replacement.
	BytesMoved int64 `json:"bytes_moved"`
	// RawWireBytes / RawFrames are the transport's chunked-body counters
	// for this run (zero in sequential mode, where data rides gob).
	RawWireBytes int64   `json:"raw_wire_bytes"`
	RawFrames    int64   `json:"raw_frames"`
	PoolHitRate  float64 `json:"pool_hit_rate"`
}

// DataPlaneReport is the full sweep, serialized to BENCH_dataplane.json.
type DataPlaneReport struct {
	GeneratedBy string         `json:"generated_by"`
	Transport   string         `json:"transport"`
	Nodes       int            `json:"nodes"`
	M           int            `json:"m"`
	R           int            `json:"r"`
	Runs        []DataPlaneRun `json:"runs"`
}

// JSON renders the report for the committed artifact.
func (r DataPlaneReport) JSON() ([]byte, error) { return marshalArtifact(r) }

// Format renders the report as an aligned text table.
func (r DataPlaneReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery goodput over %s, %d nodes, m=%d r=%d\n", r.Transport, r.Nodes, r.M, r.R)
	fmt.Fprintf(&b, "%-9s %-6s %-6s %12s %14s %10s %9s\n",
		"state", "mech", "mode", "seconds", "goodput MB/s", "speedup", "pool hit")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%-9s %-6s %-6s %12.3f %14.1f %9.2fx %8.0f%%\n",
			fmt.Sprintf("%dMB", run.StateMB), run.Mechanism, run.Mode,
			run.Seconds, run.GoodputMBps, run.SpeedupVsSeq, 100*run.PoolHitRate)
	}
	return b.String()
}

// dataPlaneEnv is one live TCP overlay with a saved state.
type dataPlaneEnv struct {
	net      *nettransport.Network
	replMgr  *recovery.Manager
	snapshot []byte
}

func (e *dataPlaneEnv) close() { e.net.Close() }

// newDataPlaneEnv boots a TCP overlay of cfg.Nodes DHT nodes, saves a
// stateMB-sized snapshot from one owner (m×r sharding over its leaf set),
// then crashes the owner so every later recovery runs the real lost-state
// path over the wire.
func newDataPlaneEnv(cfg DataPlaneConfig, stateMB int) (*dataPlaneEnv, error) {
	dht.RegisterWire()
	recovery.RegisterWire()
	n := nettransport.New()
	dcfg := dht.Config{LeafSetSize: 8, KVReplicas: 2}
	all := make([]*dht.Node, 0, cfg.Nodes)
	mgrs := make(map[id.ID]*recovery.Manager, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		node, err := dht.NewNode(id.HashKey(fmt.Sprintf("dataplane-%d-%d", stateMB, i)), n, dcfg)
		if err != nil {
			n.Close()
			return nil, err
		}
		if i == 0 {
			node.Bootstrap()
		} else if err := node.Join(all[0].ID()); err != nil {
			n.Close()
			return nil, fmt.Errorf("join node %d: %w", i, err)
		}
		mgrs[node.ID()] = recovery.NewManager(node)
		all = append(all, node)
	}

	snap := make([]byte, stateMB*1_000_000)
	rand.New(rand.NewSource(int64(stateMB))).Read(snap)
	owner := all[len(all)/2]
	mgr := mgrs[owner.ID()]
	if _, err := mgr.Save("dataplane-app", snap, cfg.M, cfg.R, mgr.NextVersion(1)); err != nil {
		n.Close()
		return nil, fmt.Errorf("save: %w", err)
	}

	n.Fail(owner.ID())
	var replacement *dht.Node
	for _, node := range all {
		if node.ID() != owner.ID() {
			node.MaintenanceTick()
			if replacement == nil {
				replacement = node
			}
		}
	}
	return &dataPlaneEnv{net: n, replMgr: mgrs[replacement.ID()], snapshot: snap}, nil
}

// DataPlaneSweep runs the full experiment and returns the report.
func DataPlaneSweep(cfg DataPlaneConfig) (DataPlaneReport, error) {
	cfg = cfg.withDefaults()
	report := DataPlaneReport{
		GeneratedBy: "sr3bench dataplane",
		Transport:   "loopback TCP (nettransport)",
		Nodes:       cfg.Nodes,
		M:           cfg.M,
		R:           cfg.R,
	}
	type sweepMode struct {
		name string
		conc int
		seq  bool
	}
	modes := []sweepMode{{"seq", 1, true}}
	for _, c := range cfg.Concurrencies {
		modes = append(modes, sweepMode{fmt.Sprintf("c%d", c), c, false})
	}
	mechs := []recovery.Mechanism{recovery.Star, recovery.Line, recovery.Tree}
	for _, sizeMB := range cfg.SizesMB {
		env, err := newDataPlaneEnv(cfg, sizeMB)
		if err != nil {
			return report, fmt.Errorf("dataplane %dMB: %w", sizeMB, err)
		}
		for _, mech := range mechs {
			var baseline metrics.DataPlaneStats
			for _, mode := range modes {
				opts := recovery.DefaultOptions()
				opts.SequentialFetch = mode.seq
				opts.FetchConcurrency = mode.conc
				if mode.seq {
					opts.PipelineDepth = 1
				}
				var stats metrics.DataPlaneStats
				var wire nettransport.DataPlaneStats
				for trial := 0; trial < cfg.Trials; trial++ {
					before := env.net.DataPlane()
					start := time.Now()
					res, err := env.replMgr.RecoverDirect("dataplane-app", mech, opts)
					elapsed := time.Since(start)
					if err != nil {
						env.close()
						return report, fmt.Errorf("dataplane %dMB %s %s: %w", sizeMB, mech, mode.name, err)
					}
					if !bytes.Equal(res.Snapshot, env.snapshot) {
						env.close()
						return report, fmt.Errorf("dataplane %dMB %s %s: recovered state differs", sizeMB, mech, mode.name)
					}
					after := env.net.DataPlane()
					cur := metrics.DataPlaneStats{
						BytesMoved:       int64(len(res.Snapshot)),
						Seconds:          elapsed.Seconds(),
						FetchConcurrency: mode.conc,
						PoolHits:         after.Pool.Hits - before.Pool.Hits,
						PoolMisses:       after.Pool.Misses - before.Pool.Misses,
					}
					if trial == 0 || cur.Seconds < stats.Seconds {
						stats = cur
						wire = nettransport.DataPlaneStats{
							RawBytes:  after.RawBytes - before.RawBytes,
							RawFrames: after.RawFrames - before.RawFrames,
						}
					}
				}
				if mode.seq {
					baseline = stats
				}
				run := DataPlaneRun{
					StateMB:      sizeMB,
					Mechanism:    mech.String(),
					Mode:         mode.name,
					Concurrency:  mode.conc,
					Seconds:      stats.Seconds,
					GoodputMBps:  stats.GoodputMBps(),
					SpeedupVsSeq: stats.Speedup(baseline),
					BytesMoved:   stats.BytesMoved,
					RawWireBytes: wire.RawBytes,
					RawFrames:    wire.RawFrames,
					PoolHitRate:  stats.PoolHitRate(),
				}
				report.Runs = append(report.Runs, run)
			}
		}
		env.close()
	}
	return report, nil
}
