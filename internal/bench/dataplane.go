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
// size × mechanism × fetch concurrency and reports recovery goodput. A
// single recovery of a few tens of milliseconds on a shared box reads
// anywhere within a factor of two of itself, so every cell repeats the
// recovery and reports the median and the interquartile range; a
// difference between two cells inside their IQRs is not one.

// DataPlaneSchema versions the committed BENCH_dataplane.json.
const DataPlaneSchema = "sr3.bench.dataplane/v2"

// DataPlaneCellSpec names one cell to run.
type DataPlaneCellSpec struct {
	StateMB   int    `json:"state_mb"` // 1 MB = 1e6 bytes
	Mechanism string `json:"mechanism"`
	// Concurrency is Options.FetchConcurrency.
	Concurrency int `json:"concurrency"`
	// Reps is how many times the recovery runs in the cell's overlay.
	Reps int `json:"reps"`
	// Nodes is the TCP overlay size; M, R the shard count and replication.
	Nodes int `json:"nodes"`
	M     int `json:"m"`
	R     int `json:"r"`
}

// DataPlaneCell is one measured cell.
type DataPlaneCell struct {
	DataPlaneCellSpec
	// Seconds is the median recovery time over Reps, SecondsIQR the
	// distance between its quartiles, ColdSeconds the first repetition —
	// empty buffer pool, the one a real recovery resembles.
	Seconds     float64 `json:"seconds"`
	SecondsIQR  float64 `json:"seconds_iqr"`
	ColdSeconds float64 `json:"cold_seconds"`
	// GoodputMBps is merged state delivered per second at the median.
	GoodputMBps float64 `json:"goodput_mbps"`
	// RawWireBytes / RawFrames are the transport's chunked-body counters
	// and PoolHitRate its buffer reuse, per repetition, over the cell.
	RawWireBytes int64   `json:"raw_wire_bytes"`
	RawFrames    int64   `json:"raw_frames"`
	PoolHitRate  float64 `json:"pool_hit_rate"`
	Error        string  `json:"error,omitempty"`
}

// DataPlaneReport is the full sweep, serialized to BENCH_dataplane.json.
type DataPlaneReport struct {
	Schema    string          `json:"schema"`
	Transport string          `json:"transport"`
	Cells     []DataPlaneCell `json:"cells"`
}

// JSON renders the report for the committed artifact.
func (r *DataPlaneReport) JSON() ([]byte, error) { return marshalArtifact(r) }

// DataPlanePreset returns the cell list for a named preset: "tiny" is the
// CI smoke subset, "full" the committed sweep.
func DataPlanePreset(preset string) ([]DataPlaneCellSpec, error) {
	var sizes, concs []int
	base := DataPlaneCellSpec{M: 8, R: 3}
	switch preset {
	case "tiny":
		sizes, concs = []int{2}, []int{4}
		base.Nodes, base.Reps = 10, 2
	case "full":
		sizes, concs = []int{8, 64}, []int{4, 8}
		base.Nodes, base.Reps = 14, 7
	default:
		return nil, fmt.Errorf("dataplane: unknown preset %q (tiny, full)", preset)
	}
	var specs []DataPlaneCellSpec
	for _, size := range sizes {
		for _, mech := range dataPlaneMechs {
			spec := base
			spec.StateMB, spec.Mechanism = size, mech.String()
			for _, c := range concs {
				spec.Concurrency = c
				specs = append(specs, spec)
			}
		}
	}
	return specs, nil
}

// dataPlaneMechs are the mechanisms swept, a cell naming one by String.
var dataPlaneMechs = []recovery.Mechanism{recovery.Star, recovery.Line, recovery.Tree}

// DataPlaneSweep runs every cell in a fresh overlay.
func DataPlaneSweep(specs []DataPlaneCellSpec) *DataPlaneReport {
	return &DataPlaneReport{Schema: DataPlaneSchema, Transport: "loopback TCP (nettransport)",
		Cells: sweep(specs, 0,
			func(spec DataPlaneCellSpec, _ int64) (DataPlaneCell, error) { return runDataPlaneCell(spec) },
			func(c *DataPlaneCell) *string { return &c.Error })}
}

// dataPlaneEnv is one live TCP overlay with a saved state.
type dataPlaneEnv struct {
	net      *nettransport.Network
	replMgr  *recovery.Manager
	snapshot []byte
}

// newDataPlaneEnv boots a TCP overlay of spec.Nodes DHT nodes, saves a
// StateMB-sized snapshot from one owner (m×r sharding over its leaf set),
// then crashes the owner so every later recovery runs the real lost-state
// path over the wire.
func newDataPlaneEnv(spec DataPlaneCellSpec) (*dataPlaneEnv, error) {
	dht.RegisterWire()
	recovery.RegisterWire()
	n := nettransport.New()
	dcfg := dht.Config{LeafSetSize: 8, KVReplicas: 2}
	all := make([]*dht.Node, 0, spec.Nodes)
	mgrs := make(map[id.ID]*recovery.Manager, spec.Nodes)
	for i := 0; i < spec.Nodes; i++ {
		node, err := dht.NewNode(id.HashKey(fmt.Sprintf("dataplane-%d-%d", spec.StateMB, i)), n, dcfg)
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

	snap := make([]byte, spec.StateMB*1_000_000)
	rand.New(rand.NewSource(int64(spec.StateMB))).Read(snap)
	owner := all[len(all)/2]
	mgr := mgrs[owner.ID()]
	if _, err := mgr.Save("dataplane-app", snap, spec.M, spec.R, mgr.NextVersion(1)); err != nil {
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

// runDataPlaneCell recovers the cell's state spec.Reps times in one
// overlay and summarizes the repetitions.
func runDataPlaneCell(spec DataPlaneCellSpec) (DataPlaneCell, error) {
	cell := DataPlaneCell{DataPlaneCellSpec: spec}
	var mech recovery.Mechanism
	for _, m := range dataPlaneMechs {
		if m.String() == spec.Mechanism {
			mech = m
		}
	}
	if mech == 0 {
		return cell, fmt.Errorf("dataplane: unknown mechanism %q", spec.Mechanism)
	}
	if spec.Reps < 1 {
		return cell, fmt.Errorf("dataplane: cell needs reps >= 1")
	}
	env, err := newDataPlaneEnv(spec)
	if err != nil {
		return cell, err
	}
	defer env.net.Close()
	opts := recovery.DefaultOptions()
	opts.FetchConcurrency = spec.Concurrency
	before := env.net.DataPlane()
	seconds := make([]float64, spec.Reps)
	for rep := range seconds {
		start := time.Now()
		res, err := env.replMgr.RecoverDirect("dataplane-app", mech, opts)
		seconds[rep] = time.Since(start).Seconds()
		if err != nil {
			return cell, err
		}
		if !bytes.Equal(res.Snapshot, env.snapshot) {
			return cell, fmt.Errorf("recovered state differs")
		}
	}
	after := env.net.DataPlane()
	cell.ColdSeconds = seconds[0]
	q1, _ := metrics.Percentile(seconds, 25) // reps >= 1: never empty
	q3, _ := metrics.Percentile(seconds, 75)
	cell.Seconds, _ = metrics.Percentile(seconds, 50)
	cell.SecondsIQR = q3 - q1
	stats := metrics.DataPlaneStats{
		BytesMoved: int64(len(env.snapshot)), Seconds: cell.Seconds,
		PoolHits: after.Pool.Hits - before.Pool.Hits, PoolMisses: after.Pool.Misses - before.Pool.Misses,
	}
	cell.GoodputMBps, cell.PoolHitRate = stats.GoodputMBps(), stats.PoolHitRate()
	cell.RawWireBytes = (after.RawBytes - before.RawBytes) / int64(spec.Reps)
	cell.RawFrames = (after.RawFrames - before.RawFrames) / int64(spec.Reps)
	return cell, nil
}

// ValidateDataPlane parses and schema-checks an artifact and enforces its
// gates: no failed cell, every cell moved its state as raw chunk frames
// at a positive rate, and a spread is there to read it by.
func ValidateDataPlane(blob []byte) (*DataPlaneReport, error) {
	var r DataPlaneReport
	if err := parseArtifact(blob, "dataplane", DataPlaneSchema, &r); err != nil {
		return nil, err
	}
	for _, c := range r.Cells {
		name := fmt.Sprintf("%dMB/%s/c%d", c.StateMB, c.Mechanism, c.Concurrency)
		switch {
		case c.Error != "":
			return nil, fmt.Errorf("dataplane artifact: cell %s failed: %s", name, c.Error)
		case c.Reps < 1 || c.Seconds <= 0 || c.GoodputMBps <= 0:
			return nil, fmt.Errorf("dataplane artifact: cell %s has no rate", name)
		case c.RawWireBytes < int64(c.StateMB)*1_000_000:
			return nil, fmt.Errorf("dataplane artifact: cell %s moved %d raw bytes for %d MB of state", name, c.RawWireBytes, c.StateMB)
		}
	}
	return &r, nil
}

// Format renders the report as an aligned table.
func (r *DataPlaneReport) Format() string { return alignMarkdown(r.Markdown()) }

// Markdown renders the sweep as a GitHub-flavored table.
func (r *DataPlaneReport) Markdown() string {
	var b strings.Builder
	b.WriteString("| state | mech | fetch pool | reps | median s | IQR s | cold s | goodput MB/s | raw MB/rep | pool hit |\n")
	b.WriteString("|---:|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, c := range r.Cells {
		if c.Error != "" {
			fmt.Fprintf(&b, "| %d MB | %s | %d | %d | ERR %s | | | | | |\n", c.StateMB, c.Mechanism, c.Concurrency, c.Reps, c.Error)
			continue
		}
		fmt.Fprintf(&b, "| %d MB | %s | %d | %d | %.4f | %.4f | %.4f | %.1f | %.1f | %.0f%% |\n",
			c.StateMB, c.Mechanism, c.Concurrency, c.Reps, c.Seconds, c.SecondsIQR, c.ColdSeconds,
			c.GoodputMBps, float64(c.RawWireBytes)/1e6, 100*c.PoolHitRate)
	}
	fmt.Fprintf(&b, "\n*%s; each cell is one overlay, its state saved m×r and its owner failed, recovered `reps` times by one replacement: median, interquartile range and first (cold-pool) repetition.*\n", r.Transport)
	return b.String()
}
