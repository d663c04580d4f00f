package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sr3/benchmark/kinds"
)

// setups is how many times a run forms the cluster; setup_s is their
// median and only the last cluster goes on to carry the workload.
const setups = 11

// setupTimeout bounds one cluster formation.
const setupTimeout = 15 * time.Second

// runOpts is everything one run is a function of.
type runOpts struct {
	w      workload
	seed   int64
	window time.Duration
	trace  bool
	bin    string // benchnode binary
	dir    string // run directory: topology, logs, pids, spans
	// warm and setups are warmup and setups except under -quick.
	warm   time.Duration
	setups int
}

// runResult is one run: a workload, a seed, a verdict and its metrics.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`

	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"` // tuples emitted
	Failed    int64 `json:"failed"`    // missing + duplicated + state keys off the reference

	Missing       int64    `json:"missing"`
	Duplicated    int64    `json:"duplicated"`
	StateMismatch int64    `json:"state_mismatch"`
	Drained       bool     `json:"drained"`
	Problems      []string `json:"problems,omitempty"`
	LogTail       string   `json:"log_tail,omitempty"`

	Metrics map[string]float64 `json:"metrics"`
	RunDir  string             `json:"run_dir"`
}

// sample is one poll of node1's digest.
type sample struct {
	nowNs    int64 // node1's clock when it built the digest
	distinct int64
	emitted  int64
	done     bool
	alive2   bool
	owner    string
}

// edge is everything read at one end of the measurement window.
type edge struct {
	at     time.Time
	d      kinds.Digest       // node1, level 1
	cpu    map[string]float64 // CPU seconds per live node
	rchar3 int64
	// Traced runs: /metrics of every live node, and how long each took.
	scrapes  map[string]scrape
	scrapeMs map[string]float64
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// formCluster launches the three processes and waits until every
// /healthz is green and the sink has its first tuple.
func formCluster(o runOpts, tag, topo string) (*nodeSet, time.Duration, error) {
	c, err := launch(o.bin, o.dir, tag, topo)
	if err != nil {
		return nil, 0, err
	}
	deadline := time.Now().Add(setupTimeout)
	for {
		ready := true
		for _, name := range nodeNames {
			if _, err := httpGet("http://" + c.procs[name].http + "/healthz"); err != nil {
				ready = false
				break
			}
		}
		if ready {
			d, err := c.digest("node1", 0)
			ready = err == nil && d.Sink != nil && d.Sink.Distinct > 0
		}
		if ready {
			took := time.Since(c.began)
			poller.CloseIdleConnections()
			return c, took, nil
		}
		if name := c.unplannedExit(); name != "" {
			tail := c.logTail(tag, 2048)
			c.stop(false)
			return nil, 0, fmt.Errorf("%s exited while the cluster formed\n%s", name, tail)
		}
		if time.Now().After(deadline) {
			tail := c.logTail(tag, 2048)
			c.stop(false)
			return nil, 0, fmt.Errorf("cluster not ready after %v\n%s", setupTimeout, tail)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// readEdge takes the window-edge readings. The digest and the CPU
// counters are read back to back so tuples and CPU cover the same span.
func readEdge(c *nodeSet, rec *recorder, parent *span, name string) (edge, error) {
	sp := rec.start(parent, name)
	defer sp.end()
	e := edge{cpu: map[string]float64{}}
	d, err := c.digest("node1", 1)
	if err != nil {
		return e, err
	}
	e.d, e.at = d, time.Now()
	for _, n := range nodeNames {
		if p := c.procs[n]; !p.gone() {
			if s, err := cpuSeconds(p.pid()); err == nil {
				e.cpu[n] = s
			}
		}
	}
	if p := c.procs["node3"]; !p.gone() {
		e.rchar3, _ = readChars(p.pid())
	}
	if rec != nil {
		e.scrapes, e.scrapeMs = map[string]scrape{}, map[string]float64{}
		for _, n := range nodeNames {
			if p := c.procs[n]; !p.gone() {
				ssp := rec.start(sp, "scrape /metrics "+n)
				body, err := httpGet("http://" + p.http + "/metrics")
				ssp.end()
				if err == nil {
					e.scrapes[n], e.scrapeMs[n] = parseScrape(string(body)), ssp.ms()
				}
			}
		}
	}
	return e, nil
}

// run executes one workload once and never hangs: every wait has a cap,
// and whatever could not be measured is reported as a problem.
func run(o runOpts) (res runResult) {
	res = runResult{
		Workload: o.w.Name, Seed: o.seed, Seconds: o.window.Seconds(), Traced: o.trace,
		Metrics: map[string]float64{}, RunDir: o.dir,
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder(fmt.Sprintf("%s-%d-%d", o.w.Name, o.seed, time.Now().UnixNano()))
	}
	root := rec.start(nil, "run "+o.w.Name)
	defer func() {
		root.end()
		if err := rec.write(filepath.Join(o.dir, "spans.jsonl")); err != nil {
			res.problem("write spans: %v", err)
		}
		res.Correct = res.Correct && len(res.Problems) == 0
	}()

	topo := filepath.Join(o.dir, "topo.yaml")
	if err := os.WriteFile(topo, []byte(o.w.topoYAML(o.seed, o.warm+o.window)), 0o644); err != nil {
		res.problem("%v", err)
		return res
	}

	// Set-up, several times over; the last cluster stays.
	var c *nodeSet
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		tag := fmt.Sprintf("setup%d", i)
		if i == o.setups-1 {
			tag = "run"
		}
		sp := rec.start(root, "launch+ready "+tag)
		cl, took, err := formCluster(o, tag, topo)
		sp.end()
		if err != nil {
			res.problem("set-up %d: %v", i, err)
			return res
		}
		setupS = append(setupS, took.Seconds())
		if i < o.setups-1 {
			cl.stop(false)
		} else {
			c = cl
		}
	}
	defer c.stop(false)
	res.Metrics["setup_s"] = median(setupS)

	first, err := c.digest("node1", 0)
	if err != nil || first.Spout == nil || first.Spout.T0Ns == 0 {
		res.problem("no generator digest on node1: %v", err)
		return res
	}
	t0 := time.Unix(0, first.Spout.T0Ns)
	winStart, winEnd := t0.Add(o.warm), t0.Add(o.warm+o.window)
	killTime := winStart.Add(o.window / 4) // three quarters of the window are left for detection, recovery and catch-up
	wallCap := winEnd.Add(spoutTail + 10*time.Second)
	owner0 := first.Assign["state"]

	var (
		samples            []sample
		start, end         edge
		haveStart, haveEnd bool
		killedAt           time.Time
		cpuAtKill          float64
		rssMB              []float64
		lastProc           time.Time
		pollErrs           int
	)
	runSp := rec.start(root, "measure")
	poll := func() (sample, bool) {
		d, err := c.digest("node1", 0)
		if err != nil || d.Spout == nil || d.Sink == nil {
			pollErrs++
			return sample{}, false
		}
		s := sample{nowNs: d.NowNs, distinct: d.Sink.Distinct, emitted: d.Spout.Emitted,
			done: d.Spout.Done, alive2: d.Alive["node2"], owner: d.Assign["state"]}
		samples = append(samples, s)
		return s, true
	}
	// procs samples RSS ten times a second (and, traced, the 1 Hz series).
	var lastSeries time.Time
	procs := func(now time.Time) {
		if now.Sub(lastProc) < 100*time.Millisecond {
			return
		}
		lastProc = now
		series := rec != nil && now.Sub(lastSeries) >= time.Second
		if series {
			lastSeries = now
		}
		sum := 0.0
		for _, n := range nodeNames {
			p := c.procs[n]
			if p.gone() {
				continue
			}
			rss, err := rssBytes(p.pid())
			if err != nil {
				continue
			}
			sum += float64(rss) / 1e6
			if series {
				cpu, _ := cpuSeconds(p.pid())
				rc, _ := readChars(p.pid())
				rec.sample(procSample{Sample: n, AtNs: now.UnixNano(), CPUSec: cpu, RSSMB: float64(rss) / 1e6, RChar: rc})
			}
		}
		rssMB = append(rssMB, sum)
	}

	tick := time.NewTicker(time.Duration(o.w.PollMs) * time.Millisecond)
	defer tick.Stop()
	for now := range tick.C {
		s, ok := poll()
		procs(now)
		if name := c.unplannedExit(); name != "" {
			res.problem("%s exited unplanned", name)
			break
		}
		if !haveStart && !now.Before(winStart) {
			if start, err = readEdge(c, rec, runSp, "window start"); err != nil {
				res.problem("window start: %v", err)
				break
			}
			haveStart = true
		}
		if o.w.Kill && killedAt.IsZero() && !now.Before(killTime) {
			cpuAtKill, _ = cpuSeconds(c.procs[owner0].pid())
			killedAt = c.kill(owner0)
			rec.record(runSp, "kill "+owner0, killedAt, time.Now())
		}
		if !haveEnd && !now.Before(winEnd) {
			if end, err = readEdge(c, rec, runSp, "window end"); err != nil {
				res.problem("window end: %v", err)
				break
			}
			haveEnd = true
		}
		if haveEnd && ok && s.done {
			break
		}
		if now.After(wallCap) {
			res.problem("generator still running %v after the window", now.Sub(winEnd).Round(time.Millisecond))
			break
		}
	}
	runSp.end()
	if !haveEnd {
		res.LogTail = c.logTail("run", 2048)
		return res
	}

	// Drain: the sink must come to hold every emitted tuple.
	drainSp := rec.start(root, "drain")
	drainFrom := time.Now()
	for {
		s, ok := poll()
		procs(time.Now())
		if ok && s.done && s.distinct >= s.emitted {
			res.Drained = true
			break
		}
		if time.Since(drainFrom) > drainTimeout {
			res.problem("not drained %v after the generator stopped; %s", drainTimeout, whereStuck(c, o.dir, s.owner))
			break
		}
		if name := c.unplannedExit(); name != "" {
			res.problem("%s exited unplanned", name)
			break
		}
		time.Sleep(time.Duration(o.w.PollMs) * time.Millisecond)
	}
	drainSp.end()
	res.Metrics["workload.drain_ms"] = float64(time.Since(drainFrom)) / 1e6

	// Verify against the reference computed from (seed, emitted).
	verifySp := rec.start(root, "verify")
	fin, err := c.digest("node1", 2)
	if err != nil || fin.Sink == nil || fin.Spout == nil {
		res.problem("final digest of node1: %v", err)
		return res
	}
	ownerEnd := fin.Assign["state"]
	var st kinds.Digest
	if ownerEnd == "node1" {
		st = fin
	} else if st, err = c.digest(ownerEnd, 2); err != nil {
		res.problem("final digest of %s: %v", ownerEnd, err)
		return res
	}
	if st.State == nil {
		res.problem("%s hosts no state", ownerEnd)
		return res
	}
	res.Attempted = fin.Spout.Emitted
	want := kinds.NewGen(o.seed, o.w.Keys).Reference(res.Attempted)
	v := kinds.Check(fin.Sink.Seen, want)
	res.Missing, res.Duplicated = v.Missing, v.Duplicated
	for id, w := range want {
		var got int64
		if id < len(st.State.Counts) {
			got = st.State.Counts[id]
		}
		if got != w {
			res.StateMismatch++
		}
	}
	res.Failed = res.Missing + res.Duplicated + res.StateMismatch
	res.Correct = res.Failed == 0 && res.Attempted > 0
	verifySp.end()
	if o.w.Kill && (ownerEnd == owner0 || killedAt.IsZero()) {
		res.problem("planned kill did not move state off %s", owner0)
	}
	if !o.w.Kill && (ownerEnd != owner0 || fin.Epoch != first.Epoch) {
		res.problem("unplanned view change: state on %s, epoch %d -> %d", ownerEnd, first.Epoch, fin.Epoch)
	}
	if pollErrs > 0 {
		res.problem("%d digest polls failed", pollErrs)
	}

	// End-to-end metrics over [start.d.NowNs, end.d.NowNs].
	m := res.Metrics
	winSec := float64(end.d.NowNs-start.d.NowNs) / 1e9
	delivered := float64(end.d.Sink.Distinct - start.d.Sink.Distinct)
	m["tuples_per_s"] = delivered / winSec
	cpu := map[string]float64{}
	cpuSum := 0.0
	for _, n := range nodeNames {
		from, okFrom := start.cpu[n]
		to, okTo := end.cpu[n]
		if n == owner0 && o.w.Kill {
			to, okTo = cpuAtKill, cpuAtKill > 0
		}
		if okFrom && okTo {
			cpu[n] = to - from
			cpuSum += to - from
		}
	}
	if delivered > 0 {
		m["cpu_us_per_tuple"] = cpuSum / delivered * 1e6
	}
	lag := end.d.Sink.Lag.Sub(*start.d.Sink.Lag)
	m["lag_ms_p50"] = lag.Quantile(0.50) / 1e6
	m["lag_ms_p99"] = lag.Quantile(0.99) / 1e6
	m["rss_mb_peak"] = quantile(rssMB, 0.95)

	// Window-scoped layer metrics that cost nothing extra to read.
	m["workload.emitted"] = float64(res.Attempted)
	if fin.Spout.Late != nil {
		m["workload.late_ms_p99"] = fin.Spout.Late.Quantile(0.99) / 1e6
	}
	m["sink.lag_samples"] = float64(lag.Count)
	m["sink.reemitted"] = float64(fin.Sink.Reemitted)
	m["sink.gap_ms_p99"] = end.d.Sink.Gap.Sub(*start.d.Sink.Gap).Quantile(0.99) / 1e6
	m["cpu.node1_frac"] = cpu["node1"] / winSec
	m["cpu.owner_frac"] = cpu[owner0] / winSec
	m["backend.holder_cpu_frac"] = cpu["node3"] / winSec
	rx := float64(end.rchar3 - start.rchar3)
	m["backend.holder_rx_mb_per_s"] = rx / 1e6 / winSec
	saves := delivered / float64(o.w.SaveEvery)
	m["backend.saves"] = saves
	if expect := saves * float64(st.State.StoreBytes) * holderShare("node3"); expect > 0 {
		m["backend.write_amplification"] = rx / expect
	}

	if o.w.Kill && !killedAt.IsZero() {
		killMetrics(m, rec, root, samples, fin.Sink.Stalls, killedAt, owner0, o.w.Rate)
	}
	if rec != nil {
		layerMetrics(m, rec, root, c, o, start, end, owner0, ownerEnd, float64(fin.Sink.Distinct), winSec)
	}
	if len(res.Problems) > 0 {
		res.LogTail = c.logTail("run", 2048)
	}
	return res
}

// whereStuck names the stage a non-draining run lost its tail at: the
// tuple count of every stage along the path, read from /metrics of node1
// and the state owner (both expositions, and both processes' goroutine
// dumps, are kept in the run directory).
func whereStuck(c *nodeSet, dir, owner string) string {
	scrapes := map[string]scrape{}
	for _, n := range []string{"node1", owner} {
		p, ok := c.procs[n]
		if !ok || p.gone() {
			continue
		}
		if body, err := httpGet("http://" + p.http + "/metrics"); err == nil {
			_ = os.WriteFile(filepath.Join(dir, "stuck-"+n+".metrics"), body, 0o644)
			scrapes[n] = parseScrape(string(body))
		}
		if body, err := httpGet("http://" + p.http + "/debug/pprof/goroutine?debug=2"); err == nil {
			_ = os.WriteFile(filepath.Join(dir, "stuck-"+n+".goroutines"), body, 0o644)
		}
	}
	const task = "sr3_stream_task_bench_"
	n1, own := scrapes["node1"].values, scrapes[owner].values
	return fmt.Sprintf("tuples per stage: spout %v, in relay acked %v, in edge carried %v, state acked %v emitted %v, out relay acked %v, out edge carried %v, sink acked %v",
		n1["sr3_stream_spout_tuples_total"], n1[task+"__relay_source_state_0_acks_total"],
		own["sr3_cluster_edge_source__state_tuples_total"], own[task+"state_0_acks_total"], own[task+"state_0_tuples_out_total"],
		own[task+"__relay_state_sink_0_acks_total"], n1["sr3_cluster_edge_state__sink_tuples_total"], n1[task+"sink_0_acks_total"])
}

// holderShare is the fraction of one snapshot's bytes a full scatter
// lands on node: cluster/backend.go places replica j of shard i on live
// member (i*replicas+j) mod members, members sorted by name.
func holderShare(node string) float64 {
	const shards, replicas = 4, 2 // the spec's defaults, which every workload keeps
	idx := sort.SearchStrings(nodeNames, node)
	n := 0
	for k := 0; k < shards*replicas; k++ {
		if k%len(nodeNames) == idx {
			n++
		}
	}
	return float64(n) / shards
}

// killMetrics derives the fault's outside view from the poll series.
func killMetrics(m map[string]float64, rec *recorder, root *span, samples []sample, stalls []kinds.Stall, killedAt time.Time, dead string, rate int64) {
	k := killedAt.UnixNano()
	var detect, recover, caught int64
	for _, s := range samples {
		if s.nowNs < k {
			continue
		}
		if detect == 0 && !s.alive2 {
			detect = s.nowNs
		}
		if recover == 0 && s.owner != dead && s.owner != "" {
			recover = s.nowNs
		}
		if recover != 0 && caught == 0 && s.emitted-s.distinct <= rate/10 {
			caught = s.nowNs
		}
	}
	set := func(name string, at int64) {
		if at != 0 {
			m[name] = float64(at-k) / 1e6
			rec.record(root, name, killedAt, time.Unix(0, at))
		}
	}
	set("detect_ms", detect)
	set("recover_ms", recover)
	set("catchup_ms", caught)
	var worst int64
	for _, st := range stalls {
		if st.EndNs >= k && st.GapNs > worst {
			worst = st.GapNs
		}
	}
	m["output_stall_ms"] = float64(worst) / 1e6
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the two nearest order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// writeJSON stores v indented at path.
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
