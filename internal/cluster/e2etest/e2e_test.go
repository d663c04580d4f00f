// Package e2etest is the process-level end-to-end harness: it builds the
// real sr3node binary, launches a multi-process playground cluster on
// loopback, and drives the recovery scenarios the paper's customizable
// recovery story promises — kill -9 a task owner, crash-and-rejoin under
// the same identity, rolling restarts — asserting exactly-once output
// through each.
package e2etest

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sr3/internal/cluster"
)

// sr3nodeBin is the daemon binary TestMain builds once for every test.
var sr3nodeBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sr3-e2e-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2etest:", err)
		os.Exit(1)
	}
	sr3nodeBin = filepath.Join(dir, "sr3node")
	build := exec.Command("go", "build", "-o", sr3nodeBin, "sr3/cmd/sr3node")
	build.Stdout = os.Stderr
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2etest: build sr3node:", err)
		os.Exit(1)
	}
	code := m.Run()
	_ = os.RemoveAll(dir)
	os.Exit(code)
}

// writeTopo renders the keyed word-count topology with the counter
// pinned to cntNode and everything else on node1, emitting count tuples
// paced at intervalUS microseconds.
func writeTopo(t *testing.T, cntNode string, count, intervalUS, saveEvery int) string {
	t.Helper()
	doc := fmt.Sprintf(`topology: wc
save_every: %d
shards: 4
replicas: 2
components:
  - id: source
    kind: spout.seq
    node: node1
    count: %d
    keys: 8
    interval_us: %d
  - id: count
    kind: bolt.counter
    node: %s
    inputs:
      - from: source
        grouping: fields
        field: 0
  - id: sink
    kind: bolt.sink
    node: node1
    inputs:
      - from: count
        grouping: global
`, saveEvery, count, intervalUS, cntNode)
	path := filepath.Join(t.TempDir(), "topo.yaml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func newPlayground(t *testing.T, nodes int, topo string) *cluster.Playground {
	t.Helper()
	pg, err := cluster.NewPlayground(cluster.PlaygroundConfig{
		Bin:      sr3nodeBin,
		Nodes:    nodes,
		TopoFile: topo,
		Dir:      t.TempDir(),
		// Generous margins: `go test ./...` runs this package alongside
		// every other suite, and a starved child process that misses a
		// few 50ms heartbeats under a 300ms dead window gets falsely
		// declared dead mid-test.
		Heartbeat: 100 * time.Millisecond,
		DeadAfter: time.Second,
		Repair:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pg.StopAll)
	if err := pg.Start(15 * time.Second); err != nil {
		t.Fatalf("playground start: %v", err)
	}
	return pg
}

// dumpLogs attaches every node's log tail to the test output on failure.
func dumpLogs(t *testing.T, pg *cluster.Playground) {
	t.Helper()
	if !t.Failed() {
		return
	}
	for _, name := range pg.Names() {
		t.Logf("--- %s log tail ---\n%s", name, pg.TailLog(name, 4096))
	}
}

// sinkSummary extracts the sink digest from a node's debug snapshot.
func sinkSummary(d cluster.NodeDebug) (cluster.SinkSummary, bool) {
	for _, c := range d.Cells {
		if s, ok := c.Sinks["sink"]; ok {
			return s, true
		}
	}
	return cluster.SinkSummary{}, false
}

// waitSink polls the named node until its sink holds exactly total
// distinct pairs with every key's pair count equal to its max.
func waitSink(t *testing.T, pg *cluster.Playground, node string, total int64, timeout time.Duration) cluster.SinkSummary {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last cluster.SinkSummary
	for time.Now().Before(deadline) {
		if d, err := pg.Debug(node); err == nil {
			if s, ok := sinkSummary(d); ok {
				last = s
				var sum int64
				for _, m := range s.MaxByKey {
					sum += m
				}
				if sum == total && int64(s.Pairs) == total && s.ExactlyOnce {
					return s
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("sink on %s never converged to %d exactly-once tuples; last %+v", node, total, last)
	return last
}

func waitCondition(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestKillTaskOwnerRecovers is the headline e2e: a real three-process
// cluster runs the keyed pipeline with automatic save/protect; the
// process owning the stateful counter is SIGKILLed mid-stream; the
// control plane must detect the death, a survivor adopts the task,
// star-fetches the scattered state, replays the gap, and the sink ends
// exactly-once with zero manual intervention.
func TestKillTaskOwnerRecovers(t *testing.T) {
	const total = 8000
	topo := writeTopo(t, "node2", total, 300, 50)
	pg := newPlayground(t, 3, topo)
	defer dumpLogs(t, pg)

	// Let the stream run and the first saves scatter.
	waitCondition(t, 10*time.Second, "counter to make progress", func() bool {
		d, err := pg.Debug("node2")
		if err != nil {
			return false
		}
		for _, c := range d.Cells {
			if cs, ok := c.Counters["count"]; ok && cs.Total > 500 {
				return true
			}
		}
		return false
	})

	if err := pg.Kill("node2"); err != nil {
		t.Fatal(err)
	}
	if err := pg.WaitExit("node2", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Detection: the seed declares node2 dead and moves the counter.
	waitCondition(t, 10*time.Second, "counter adoption", func() bool {
		d, err := pg.Debug("node1")
		if err != nil {
			return false
		}
		return d.Assign["count"] != "" && d.Assign["count"] != "node2"
	})

	// Recovery + replay: the full stream lands exactly-once.
	waitSink(t, pg, "node1", total, 60*time.Second)

	d, err := pg.Debug("node1")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range d.Members {
		if m.Name == "node2" && m.Alive {
			t.Fatalf("killed node still alive in view: %+v", d.Members)
		}
	}

	// The gap came from the senders' relay windows: no daemon task, the
	// adopter's included, keeps an input log of its own.
	for _, name := range []string{"node1", "node3"} {
		d, err := pg.Debug(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range d.Cells {
			for _, ts := range c.Tasks {
				if ts.Logged != 0 {
					t.Fatalf("%s: task %s holds %d tuples in its input log", name, ts.Key, ts.Logged)
				}
			}
		}
	}
}

// TestCrashAndRejoin kills a member, restarts the same binary under the
// same identity and addresses, and asserts it is re-admitted with a
// fresh incarnation and converges back into a shard holder via the
// repair loop.
func TestCrashAndRejoin(t *testing.T) {
	const total = 8000
	topo := writeTopo(t, "node2", total, 300, 50)
	pg := newPlayground(t, 3, topo)
	defer dumpLogs(t, pg)

	before, err := pg.Debug("node2")
	if err != nil {
		t.Fatal(err)
	}

	if err := pg.Kill("node2"); err != nil {
		t.Fatal(err)
	}
	if err := pg.WaitExit("node2", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Wait until the control plane has noticed the death.
	waitCondition(t, 10*time.Second, "death detection", func() bool {
		d, err := pg.Debug("node1")
		if err != nil {
			return false
		}
		for _, m := range d.Members {
			if m.Name == "node2" {
				return !m.Alive
			}
		}
		return false
	})

	if err := pg.Restart("node2"); err != nil {
		t.Fatal(err)
	}

	// Re-admission under the same name with a newer incarnation.
	waitCondition(t, 15*time.Second, "rejoin", func() bool {
		d, err := pg.Debug("node1")
		if err != nil {
			return false
		}
		for _, m := range d.Members {
			if m.Name == "node2" {
				return m.Alive && m.Incarnation > before.Incarnation
			}
		}
		return false
	})

	// The repair loop re-pushes shard replicas to the rejoined holder.
	waitCondition(t, 15*time.Second, "shard re-push", func() bool {
		d, err := pg.Debug("node2")
		if err != nil {
			return false
		}
		held := 0
		for _, c := range d.ShardsHeld {
			held += c
		}
		return held > 0
	})

	waitSink(t, pg, "node1", total, 60*time.Second)
}

// TestRollingRestart rolls every non-seed member of a five-process
// cluster through a graceful restart while the stream runs, asserting
// the cluster never drops below the surviving-majority and the final
// output is exactly-once.
func TestRollingRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("rolling restart e2e skipped in -short")
	}
	const total = 16000
	topo := writeTopo(t, "node2", total, 400, 50)
	pg := newPlayground(t, 5, topo)
	defer dumpLogs(t, pg)

	minAlive := 5
	quorumStop := make(chan struct{})
	quorumDone := make(chan struct{})
	go func() {
		defer close(quorumDone)
		for {
			select {
			case <-quorumStop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			d, err := pg.Debug("node1")
			if err != nil {
				continue
			}
			alive := 0
			for _, m := range d.Members {
				if m.Alive {
					alive++
				}
			}
			if alive < minAlive {
				minAlive = alive
			}
		}
	}()

	for _, name := range []string{"node2", "node3", "node4", "node5"} {
		if err := pg.Terminate(name); err != nil {
			t.Fatalf("terminate %s: %v", name, err)
		}
		if err := pg.WaitExit(name, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := pg.Restart(name); err != nil {
			t.Fatalf("restart %s: %v", name, err)
		}
		if err := pg.WaitMembers(5, 15*time.Second); err != nil {
			t.Fatalf("after rolling %s: %v", name, err)
		}
	}

	close(quorumStop)
	<-quorumDone
	if minAlive < 4 {
		t.Fatalf("alive members dropped to %d during the roll (quorum lost)", minAlive)
	}

	waitSink(t, pg, "node1", total, 90*time.Second)
}

// TestClusterSmoke is the CI cluster-smoke job body: build (TestMain),
// launch a three-process playground, kill one member, assert recovery
// completes and /metrics scrapes from every survivor.
func TestClusterSmoke(t *testing.T) {
	const total = 4000
	topo := writeTopo(t, "node3", total, 200, 50)
	pg := newPlayground(t, 3, topo)
	defer dumpLogs(t, pg)

	if err := pg.Kill("node3"); err != nil {
		t.Fatal(err)
	}
	if err := pg.WaitExit("node3", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Recovery completes: the counter moves and the stream finishes
	// exactly-once.
	waitCondition(t, 10*time.Second, "counter adoption", func() bool {
		d, err := pg.Debug("node1")
		if err != nil {
			return false
		}
		return d.Assign["count"] != "" && d.Assign["count"] != "node3"
	})
	waitSink(t, pg, "node1", total, 60*time.Second)

	// Every survivor's metrics endpoint scrapes.
	for _, name := range []string{"node1", "node2"} {
		body, err := pg.Metrics(name)
		if err != nil {
			t.Fatalf("metrics scrape %s: %v", name, err)
		}
		if !strings.Contains(body, "sr3_stream_tuples_in_total") {
			t.Fatalf("metrics from %s lack stream counters:\n%.500s", name, body)
		}
	}
}

// traceSpan mirrors the /debug/sr3/trace JSONL schema.
type traceSpan struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Phase  string `json:"phase"`
	Attrs  []struct {
		Key string `json:"k"`
		Str string `json:"s"`
		Int int64  `json:"i"`
	} `json:"attrs"`
}

// fetchTrace pulls the seed's stitched trace dump and decodes it.
func fetchTrace(pg *cluster.Playground) ([]traceSpan, error) {
	body, err := pg.HTTPGet("node1", "/debug/sr3/trace")
	if err != nil {
		return nil, err
	}
	var spans []traceSpan
	for _, line := range strings.Split(string(body), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var s traceSpan
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			return nil, fmt.Errorf("bad trace line %q: %w", line, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// TestClusterObsSmoke is the CI cluster-obs-smoke job body: a real
// three-process cluster, every node ready on /healthz, kill -9 the
// counter owner, then assert the tentpole invariants over process
// boundaries — the kill yields ONE connected trace rooted at the seed's
// self-heal verdict with spans observed on at least two distinct
// processes, the federated /metrics/cluster scrape carries families
// from every survivor and none from the dead node, and the distributed
// post-mortem endpoint produces a merged cluster timeline.
func TestClusterObsSmoke(t *testing.T) {
	const total = 4000
	topo := writeTopo(t, "node3", total, 200, 50)
	pg := newPlayground(t, 3, topo)
	defer dumpLogs(t, pg)

	// Readiness: every node answers /healthz (Start already waited on
	// this — the explicit probe pins the endpoint's contract).
	for _, name := range pg.Names() {
		if body, err := pg.HTTPGet(name, "/healthz"); err != nil {
			t.Fatalf("healthz %s: %v", name, err)
		} else if strings.TrimSpace(string(body)) != "ok" {
			t.Fatalf("healthz %s = %q, want ok", name, body)
		}
	}

	if err := pg.Kill("node3"); err != nil {
		t.Fatal(err)
	}
	if err := pg.WaitExit("node3", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 10*time.Second, "counter adoption", func() bool {
		d, err := pg.Debug("node1")
		if err != nil {
			return false
		}
		return d.Assign["count"] != "" && d.Assign["count"] != "node3"
	})
	waitSink(t, pg, "node1", total, 60*time.Second)

	// ONE connected trace across >= 2 processes, rooted at the verdict.
	var spans []traceSpan
	waitCondition(t, 15*time.Second, "stitched cross-process trace", func() bool {
		var err error
		spans, err = fetchTrace(pg)
		if err != nil {
			return false
		}
		var root uint64
		for _, s := range spans {
			if s.Phase == "selfheal" {
				root = s.Trace
			}
		}
		if root == 0 {
			return false
		}
		nodes := map[string]bool{}
		for _, s := range spans {
			if s.Trace != root {
				continue
			}
			for _, a := range s.Attrs {
				if a.Key == "node" {
					nodes[a.Str] = true
				}
			}
		}
		return len(nodes) >= 2
	})
	var root uint64
	byID := map[uint64]traceSpan{}
	for _, s := range spans {
		if s.Phase == "selfheal" {
			root = s.Trace
		}
	}
	phases := map[string]bool{}
	for _, s := range spans {
		if s.Trace != root {
			continue
		}
		byID[s.Span] = s
		phases[s.Phase] = true
	}
	for _, want := range []string{"selfheal", "detect", "adopt", "recover", "fetch"} {
		if !phases[want] {
			t.Fatalf("recovery trace missing phase %s; have %v", want, phases)
		}
	}
	for id, s := range byID {
		cur, hops := s, 0
		for cur.Parent != 0 && hops < 64 {
			p, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %d (%s) has dangling parent %d", id, s.Phase, cur.Parent)
			}
			cur, hops = p, hops+1
		}
		if cur.Span != root {
			t.Fatalf("span %d (%s) not connected to the selfheal root", id, s.Phase)
		}
	}

	// Federated scrape: families from every survivor, none from node3.
	scrape, err := pg.HTTPGet("node1", "/metrics/cluster")
	if err != nil {
		t.Fatalf("cluster scrape: %v", err)
	}
	for _, name := range []string{"node1", "node2"} {
		for _, family := range []string{"sr3_node_up", "sr3_stream_tuples_in_total"} {
			if !strings.Contains(string(scrape), family+`{node="`+name+`"`) {
				t.Fatalf("federated scrape lacks %s for %s:\n%.1000s", family, name, scrape)
			}
		}
	}
	if strings.Contains(string(scrape), `node="node3"`) {
		t.Fatal("dead node's series leaked into the federated scrape")
	}

	// The cluster topology view covers both survivors.
	var cd cluster.ClusterDebug
	body, err := pg.HTTPGet("node1", "/debug/sr3/cluster")
	if err != nil {
		t.Fatalf("cluster debug: %v", err)
	}
	if err := json.Unmarshal(body, &cd); err != nil {
		t.Fatalf("cluster debug decode: %v", err)
	}
	if cd.Seed != "node1" || cd.Nodes["node2"].Node != "node2" {
		t.Fatalf("cluster debug incomplete: %+v", cd)
	}

	// The distributed post-mortem merges journals from all survivors.
	pm, err := pg.HTTPGet("node1", "/debug/sr3/postmortem")
	if err != nil {
		t.Fatalf("post-mortem: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(pm)), "\n")
	if len(lines) < 2 {
		t.Fatalf("post-mortem has %d lines, want header + entries", len(lines))
	}
	var hdr struct {
		Type  string `json:"type"`
		Nodes int    `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Type != "postmortem" {
		t.Fatalf("bad post-mortem header %q: %v", lines[0], err)
	}
	if hdr.Nodes < 2 {
		t.Fatalf("post-mortem merged %d journals, want >= 2", hdr.Nodes)
	}
	pmNodes := map[string]bool{}
	for _, line := range lines[1:] {
		var e struct {
			Node string `json:"node"`
		}
		if err := json.Unmarshal([]byte(line), &e); err == nil && e.Node != "" {
			pmNodes[e.Node] = true
		}
	}
	if !pmNodes["node1"] || !pmNodes["node2"] {
		t.Fatalf("post-mortem timeline covers %v, want node1 and node2", pmNodes)
	}
}
