package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sr3/benchmark/kinds"
	"sr3/internal/cluster"
	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/nettransport"
	"sr3/internal/recovery"
	"sr3/internal/shard"
	"sr3/internal/state"
	"sr3/internal/stream"
)

// The spec defaults every workload keeps (cluster/spec.go normalize).
const (
	specBatch    = 32
	specShards   = 4
	specReplicas = 2
	specDepth    = 1024
)

// layerMetrics fills the per-layer metrics of a traced run: first what
// the daemons already count (two /metrics scrapes bracket the window, a
// third follows the drain, and the seed's stitched recovery trace), then
// the layer replay.
func layerMetrics(m map[string]float64, rec *recorder, root *span, c *nodeSet, o runOpts,
	start, end edge, owner0, ownerEnd string, distinct, winSec float64) {
	// Edges are counted where they arrive: in on the state owner, out on node1.
	const taskPrefix = "sr3_stream_task_bench_"
	ownerS, ownerE := start.scrapes[ownerEnd], end.scrapes[ownerEnd]
	n1S, n1E := start.scrapes["node1"], end.scrapes["node1"]
	for _, e := range []struct {
		label, edge string
		from, to    scrape
	}{
		{"relay.in.", "source__state", ownerS, ownerE},
		{"relay.out.", "state__sink", n1S, n1E},
	} {
		m[e.label+"hop_ms_p99"] = e.to.hist(e.from, "sr3_cluster_edge_hop_ns_"+e.edge).Quantile(0.99) / 1e6
		m[e.label+"wait_ms_p99"] = e.to.hist(e.from, "sr3_cluster_edge_lag_ns_"+e.edge).Quantile(0.99) / 1e6
		if frames := e.to.delta(e.from, "sr3_cluster_edge_"+e.edge+"_frames_total"); frames > 0 {
			m[e.label+"tuples_per_frame"] = e.to.delta(e.from, "sr3_cluster_edge_"+e.edge+"_tuples_total") / frames
		}
	}
	stateProc := ownerE.hist(ownerS, taskPrefix+"state_0_proc_ns")
	m["runtime.state.proc_us_p50"] = stateProc.Quantile(0.50) / 1e3
	m["runtime.state.proc_us_p99"] = stateProc.Quantile(0.99) / 1e3
	m["runtime.state.queue_high_water"] = ownerE.values[taskPrefix+"state_0_queue_high_water"]
	m["runtime.state.blocked_frac"] = ownerE.delta(ownerS, taskPrefix+"__relay_state_sink_0_emit_blocked_ns_total") / 1e9 / winSec
	m["runtime.sink.proc_us_p99"] = n1E.hist(n1S, taskPrefix+"sink_0_proc_ns").Quantile(0.99) / 1e3
	m["runtime.source.blocked_frac"] = n1E.delta(n1S, taskPrefix+"__relay_source_state_0_emit_blocked_ns_total") / 1e9 / winSec
	m["obs.scrape_ms"] = end.scrapeMs["node1"]

	// After the drain: tuples each edge carried beyond what was new to its
	// receiver. The killed owner's counters died with it, so the in edge
	// counts the surviving owner only.
	last := rec.start(root, "end-of-run scrapes")
	if fin, err := readEdge(c, rec, last, "final"); err == nil {
		n1, own := fin.scrapes["node1"], fin.scrapes[ownerEnd]
		replayed := n1.values["sr3_cluster_edge_state__sink_tuples_total"] - distinct
		replayed += own.values["sr3_cluster_edge_source__state_tuples_total"] - own.values[taskPrefix+"state_0_tuples_out_total"]
		m["relay.replayed_tuples"] = replayed
	}
	sp := rec.start(last, "scrape /debug/sr3/trace")
	body, err := httpGet("http://" + c.procs["node1"].http + "/debug/sr3/trace")
	sp.end()
	if err == nil {
		_ = os.WriteFile(filepath.Join(o.dir, "seed-trace.jsonl"), body, 0o644)
		for phase, ms := range phaseMs(body) {
			m["trace."+phase+"_ms"] = ms
		}
	}
	last.end()

	replayLayers(m, rec, root, o)

	if base := lastUntraced(o.w.Name); base > 0 && m["cpu_us_per_tuple"] > 0 {
		m["obs.trace_overhead_frac"] = m["cpu_us_per_tuple"]/base - 1
	}
}

// phaseMs sums span durations by phase over the seed's stitched traces.
func phaseMs(jsonl []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s struct {
			Phase string `json:"phase"`
			Start int64  `json:"start_ns"`
			End   int64  `json:"end_ns"`
		}
		if json.Unmarshal(sc.Bytes(), &s) == nil && s.End > s.Start {
			out[s.Phase] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// baselinePath holds the last untraced cpu_us_per_tuple of a workload.
func baselinePath(workload string) string {
	return filepath.Join(buildDir, "untraced-"+workload+".json")
}

func lastUntraced(workload string) float64 {
	raw, err := os.ReadFile(baselinePath(workload))
	if err != nil {
		return 0
	}
	var v float64
	_ = json.Unmarshal(raw, &v)
	return v
}

// timed runs fn under a span and returns its duration in milliseconds.
func timed(rec *recorder, parent *span, name string, fn func()) float64 {
	sp := rec.start(parent, name)
	fn()
	sp.end()
	return sp.ms()
}

// replayLayers pushes the workload's own tuples and a snapshot of its own
// state size through each layer's public functions, one span per call.
// Failures leave the layer's metrics at 0 and are logged to stderr: the
// replay is measurement, not part of the run's verdict.
func replayLayers(m map[string]float64, rec *recorder, root *span, o runOpts) {
	top := rec.start(root, "layer replay")
	defer top.end()
	gen := kinds.NewGen(o.seed, o.w.Keys)

	// codec: frames of specBatch source tuples, as the in relay builds them.
	const frames = 2048
	tuples := make([]stream.Tuple, frames*specBatch)
	for i := range tuples {
		seq := int64(i + 1)
		tuples[i] = stream.Tuple{Stream: "source", Values: []any{kinds.KeyName(gen.KeyID(seq)), seq}, Ts: time.Now().UnixNano()}
	}
	encoded := make([][]byte, frames)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	encMs := timed(rec, top, "codec encode", func() {
		for f := range encoded {
			encoded[f], _ = stream.EncodeTupleBatch(nil, tuples[f*specBatch:(f+1)*specBatch], stream.ClassIngest)
		}
	})
	decMs := timed(rec, top, "codec decode", func() {
		for _, frame := range encoded {
			if _, _, err := stream.DecodeTupleBatch(frame); err != nil {
				fmt.Fprintln(os.Stderr, "layer replay: codec:", err)
				return
			}
		}
	})
	runtime.ReadMemStats(&ms1)
	bytesTotal := 0
	for _, frame := range encoded {
		bytesTotal += len(frame)
	}
	m["codec.encode_ns_per_tuple"] = encMs * 1e6 / float64(len(tuples))
	m["codec.decode_ns_per_tuple"] = decMs * 1e6 / float64(len(tuples))
	m["codec.bytes_per_tuple"] = float64(bytesTotal) / float64(len(tuples))
	m["codec.allocs_per_frame"] = float64(ms1.Mallocs-ms0.Mallocs) / frames

	if ms, err := replayBatchConn(rec, top, encoded); err != nil {
		fmt.Fprintln(os.Stderr, "layer replay: batchconn:", err)
	} else {
		m["batchconn.ns_per_frame"] = ms * 1e6 / float64(len(encoded))
		m["batchconn.mb_per_s"] = float64(bytesTotal) / 1e6 / (ms / 1e3)
	}

	// state: a MapStore of the workload's keys x value_bytes.
	store := state.NewMapStore()
	val := make([]byte, o.w.ValueBytes)
	names := make([]string, o.w.Keys)
	for i := range names {
		names[i] = "c|" + kinds.KeyName(int64(i))
	}
	putMs := timed(rec, top, "state put", func() {
		for _, k := range names {
			store.Put(k, val)
		}
	})
	getMs := timed(rec, top, "state get", func() {
		for _, k := range names {
			store.Get(k)
		}
	})
	m["state.put_ns"] = putMs * 1e6 / float64(len(names))
	m["state.get_ns"] = getMs * 1e6 / float64(len(names))
	var snap []byte
	var snapMs, restoreMs, splitMs, joinMs []float64
	for i := 0; i < 3; i++ {
		snapMs = append(snapMs, timed(rec, top, "state snapshot", func() { snap, _ = store.Snapshot() }))
		restoreMs = append(restoreMs, timed(rec, top, "state restore", func() {
			if err := state.NewMapStore().Restore(snap); err != nil {
				fmt.Fprintln(os.Stderr, "layer replay: restore:", err)
			}
		}))
		var all []shard.Shard
		splitMs = append(splitMs, timed(rec, top, "shard split+replicate", func() {
			base, err := shard.Split("bench/state/0", id.HashKey("bench/state/0"), snap, specShards, state.Version{Timestamp: 1, Seq: uint64(i + 1)})
			if err == nil {
				all, err = shard.Replicate(base, specReplicas)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "layer replay: shard:", err)
			}
		}))
		joinMs = append(joinMs, timed(rec, top, "shard reassemble", func() {
			if _, err := shard.Reassemble(all); err != nil {
				fmt.Fprintln(os.Stderr, "layer replay: reassemble:", err)
			}
		}))
	}
	m["state.snapshot_ms"], m["state.restore_ms"] = median(snapMs), median(restoreMs)
	m["state.snapshot_mb"] = float64(len(snap)) / 1e6
	m["shard.split_ms"], m["shard.reassemble_ms"] = median(splitMs), median(joinMs)

	if err := replayRecovery(m, rec, top, snap); err != nil {
		fmt.Fprintln(os.Stderr, "layer replay: recovery:", err)
	}
	m["runtime.inproc_tuples_per_s"] = inprocRate(rec, top, o)
}

// replayBatchConn streams the frames over one loopback connection and
// returns the milliseconds from first write to last read.
func replayBatchConn(rec *recorder, parent *span, frames [][]byte) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	readErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			readErr <- err
			return
		}
		defer conn.Close()
		bc := nettransport.NewBatchConn(conn, 10*time.Second)
		for range frames {
			_, free, err := bc.ReadBatch()
			if err != nil {
				readErr <- err
				return
			}
			free()
		}
		readErr <- nil
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	bc := nettransport.NewBatchConn(conn, 10*time.Second)
	var werr error
	ms := timed(rec, parent, "batchconn write->read", func() {
		for _, f := range frames {
			if werr = bc.WriteBatch(f); werr != nil {
				return
			}
		}
		werr = <-readErr
	})
	return ms, werr
}

// replayRecovery saves the snapshot through recovery.Manager on a 5-node
// dht overlay over TCP, fails the owner, and recovers it with each
// mechanism — the stack ROADMAP item 1 puts behind the daemon.
func replayRecovery(m map[string]float64, rec *recorder, parent *span, snap []byte) error {
	dht.RegisterWire()
	recovery.RegisterWire()
	net := nettransport.New()
	defer net.Close()
	var nodes []*dht.Node
	mgrs := map[id.ID]*recovery.Manager{}
	for i := 0; i < 5; i++ {
		n, err := dht.NewNode(id.HashKey(fmt.Sprintf("bench-layer-%d", i)), net, dht.Config{LeafSetSize: 8, KVReplicas: 2})
		if err != nil {
			return err
		}
		if i == 0 {
			n.Bootstrap()
		} else if err := n.Join(nodes[0].ID()); err != nil {
			return err
		}
		mgrs[n.ID()] = recovery.NewManager(n)
		nodes = append(nodes, n)
	}
	owner := nodes[2]
	var err error
	m["recovery.save_ms"] = timed(rec, parent, "recovery save", func() {
		_, err = mgrs[owner.ID()].Save("bench-state", snap, specShards, specReplicas, mgrs[owner.ID()].NextVersion(1))
	})
	if err != nil {
		return err
	}
	net.Fail(owner.ID())
	for _, n := range nodes {
		if n != owner {
			n.MaintenanceTick()
		}
	}
	repl := mgrs[nodes[0].ID()]
	for _, mech := range []recovery.Mechanism{recovery.Star, recovery.Line, recovery.Tree} {
		ms := timed(rec, parent, "recovery "+mech.String(), func() {
			var res recovery.Result
			if res, err = repl.RecoverDirect("bench-state", mech, recovery.DefaultOptions()); err == nil && !bytes.Equal(res.Snapshot, snap) {
				err = fmt.Errorf("%s recovered a different snapshot", mech)
			}
		})
		if err != nil {
			return err
		}
		m["recovery."+mech.String()+"_ms"] = ms
	}
	return nil
}

// inprocRate runs source, state and sink in one stream.Runtime for one
// second, unpaced, and returns tuples per second through the sink.
func inprocRate(rec *recorder, parent *span, o runOpts) float64 {
	params := map[string]int64{"rate": 0, "duration_ms": 1000, "keys": o.w.Keys, "seed": o.seed, "value_bytes": o.w.ValueBytes}
	stop := make(chan struct{})
	spout := kinds.NewSpout(cluster.Component{Params: params}, stop)
	sink := kinds.NewSink()
	topo := stream.NewTopology("bench")
	if err := topo.AddSpout("source", spout); err != nil {
		return 0
	}
	if topo.AddBolt("state", kinds.NewState(cluster.Component{Params: params}), 1).Fields("source", 0).Err() != nil ||
		topo.AddBolt("sink", sink, 1).Global("state").Err() != nil {
		return 0
	}
	rt, err := stream.NewRuntime(topo, stream.Config{
		Backend: stream.NewMemoryBackend(), SaveEveryTuples: o.w.SaveEvery,
		ChannelDepth: specDepth, Codec: stream.CodecBatch,
	})
	if err != nil {
		return 0
	}
	var delivered int64
	ms := timed(rec, parent, "in-process runtime", func() {
		rt.Start()
		_ = rt.Wait()
		delivered = sink.Digest(0).Distinct
	})
	return float64(delivered) / (ms / 1e3)
}
