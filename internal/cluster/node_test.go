package cluster

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"sr3/internal/leakcheck"
	"sr3/internal/obs"
)

// testSpec builds a source -> counter -> sink pipeline with the three
// components pinned to the given nodes.
func testSpec(srcNode, cntNode, sinkNode string, count, keys, intervalUS, saveEvery int64) *Spec {
	s := &Spec{
		Name:      "wc",
		SaveEvery: int(saveEvery),
		Components: []Component{
			{
				ID: "source", Kind: "spout.seq", Node: srcNode, Parallel: 1,
				Params: map[string]int64{"count": count, "keys": keys, "interval_us": intervalUS},
			},
			{
				ID: "count", Kind: "bolt.counter", Node: cntNode, Parallel: 1,
				Params: map[string]int64{},
				Inputs: []Input{{From: "source", Grouping: "fields", Field: 0}},
			},
			{
				ID: "sink", Kind: "bolt.sink", Node: sinkNode, Parallel: 1,
				Params: map[string]int64{},
				Inputs: []Input{{From: "count", Grouping: "global"}},
			},
		},
	}
	if err := s.normalize(); err != nil {
		panic(err)
	}
	return s
}

func testNodeConfig(name, seedAddr string, spec *Spec) NodeConfig {
	return NodeConfig{
		Name:           name,
		Listen:         "127.0.0.1:0",
		Seed:           seedAddr,
		Spec:           spec,
		Heartbeat:      20 * time.Millisecond,
		DeadAfter:      200 * time.Millisecond,
		RepairInterval: 100 * time.Millisecond,
		JoinTimeout:    5 * time.Second,
		LogWriter:      io.Discard,
	}
}

func startTestNode(t *testing.T, name, seedAddr string, spec *Spec) *Node {
	t.Helper()
	n, err := StartNode(testNodeConfig(name, seedAddr, spec))
	if err != nil {
		t.Fatalf("StartNode(%s): %v", name, err)
	}
	return n
}

// sinkOn digs the sink summary out of a node's debug snapshot.
func sinkOn(n *Node) (SinkSummary, bool) {
	for _, c := range n.Debug().Cells {
		if s, ok := c.Sinks["sink"]; ok {
			return s, true
		}
	}
	return SinkSummary{}, false
}

// waitSink polls until the sink on n has seen total tuples exactly-once.
func waitSink(t *testing.T, n *Node, total int64, timeout time.Duration) SinkSummary {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last SinkSummary
	for time.Now().Before(deadline) {
		if s, ok := sinkOn(n); ok {
			last = s
			var sum int64
			for _, m := range s.MaxByKey {
				sum += m
			}
			if sum == total && int64(s.Pairs) == total && s.ExactlyOnce {
				return s
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("sink never converged to %d exactly-once tuples; last %+v", total, last)
	return last
}

// TestSingleNodePipeline runs the whole topology in one daemon: the
// degenerate cluster, no relays involved.
func TestSingleNodePipeline(t *testing.T) {
	spec := testSpec("n1", "n1", "n1", 2000, 8, 0, 100)
	seed := startTestNode(t, "n1", "", spec)
	defer seed.Stop()
	s := waitSink(t, seed, 2000, 10*time.Second)
	if len(s.MaxByKey) != 8 {
		t.Fatalf("keys = %d, want 8", len(s.MaxByKey))
	}
	for k, m := range s.MaxByKey {
		if m != 250 {
			t.Fatalf("key %s max = %d, want 250", k, m)
		}
	}
}

// TestCrossProcessEdges splits the pipeline across three in-process
// nodes, so every edge crosses a real TCP tuple stream.
func TestCrossProcessEdges(t *testing.T) {
	spec := testSpec("n1", "n2", "n3", 2000, 8, 0, 100)
	seed := startTestNode(t, "n1", "", spec)
	defer seed.Stop()
	n2 := startTestNode(t, "n2", seed.Addr(), spec)
	defer n2.Stop()
	n3 := startTestNode(t, "n3", seed.Addr(), spec)
	defer n3.Stop()

	waitSink(t, n3, 2000, 15*time.Second)

	// The debug surface sees the full membership from any node.
	d := n2.Debug()
	if len(d.Members) != 3 {
		t.Fatalf("members = %d, want 3", len(d.Members))
	}
	if d.Assign["count"] != "n2" {
		t.Fatalf("assign[count] = %q", d.Assign["count"])
	}
}

// crashNode simulates kill -9 from the cluster's point of view: the node
// stops heartbeating and serving without a leave, so the control plane
// must detect the death. (The process-level variant lives in
// internal/cluster/e2etest.)
func crashNode(n *Node) {
	if n.control == nil {
		close(n.hbStop)
		<-n.hbDone
	}
	close(n.rpStop)
	<-n.rpDone
	n.backend.overlay.closed.Store(true) // a dead process saves nothing
	n.mu.Lock()
	cells := append([]*cell(nil), n.cells...)
	n.mu.Unlock()
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
}

// TestAdoptionAfterCrash kills the node hosting the stateful counter
// mid-stream and asserts the control plane detects the death, a survivor
// adopts the component, recovers the scattered state, and the sink ends
// exactly-once.
func TestAdoptionAfterCrash(t *testing.T) {
	const total = 4000
	// ~200us between tuples: the stream is still in flight when the
	// counter's host dies.
	spec := testSpec("n1", "n2", "n1", total, 8, 200, 25)
	seed := startTestNode(t, "n1", "", spec)
	defer seed.Stop()
	n2 := startTestNode(t, "n2", seed.Addr(), spec)
	n3 := startTestNode(t, "n3", seed.Addr(), spec)
	defer n3.Stop()

	// Let the pipeline run long enough for saves to scatter.
	time.Sleep(250 * time.Millisecond)
	crashNode(n2)

	s := waitSink(t, seed, total, 20*time.Second)
	if !s.ExactlyOnce {
		t.Fatalf("sink not exactly-once: %+v", s)
	}

	// The counter must have moved off the dead node.
	d := seed.Debug()
	if owner := d.Assign["count"]; owner == "n2" {
		t.Fatalf("count still assigned to crashed node: %v", d.Assign)
	}
	for _, m := range d.Members {
		if m.Name == "n2" && m.Alive {
			t.Fatalf("crashed node still alive in view: %+v", d.Members)
		}
	}
}

// TestNodeStopLeakFree is the daemon-shutdown leak check: a two-node
// cluster with live cross-process edges must wind down to zero repo
// goroutines on Stop.
func TestNodeStopLeakFree(t *testing.T) {
	defer leakcheck.Verify(t)()
	spec := testSpec("n1", "n2", "n2", 500, 4, 0, 100)
	seed := startTestNode(t, "n1", "", spec)
	n2 := startTestNode(t, "n2", seed.Addr(), spec)
	waitSink(t, n2, 500, 10*time.Second)
	n2.Stop()
	seed.Stop()
}

// TestRejoinSameIdentity restarts a crashed member under the same name
// and asserts it is re-admitted with a fresh incarnation and receives
// shard pushes again from the repair loop.
func TestRejoinSameIdentity(t *testing.T) {
	spec := testSpec("n1", "n1", "n1", 4000, 8, 200, 25)
	seed := startTestNode(t, "n1", "", spec)
	defer seed.Stop()
	n2 := startTestNode(t, "n2", seed.Addr(), spec)

	time.Sleep(250 * time.Millisecond)
	crashNode(n2)

	// Wait for the control plane to declare n2 dead.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v := seed.View()
		m := v.member("n2")
		if m != nil && !m.Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("n2 never declared dead")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Same name, new process (in spirit): must be re-admitted.
	n2b := startTestNode(t, "n2", seed.Addr(), spec)
	defer n2b.Stop()
	deadline = time.Now().Add(5 * time.Second)
	for {
		v := seed.View()
		m := v.member("n2")
		if m != nil && m.Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("n2 never re-admitted")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The repair loop re-pushes shard replicas to the rejoined holder.
	deadline = time.Now().Add(5 * time.Second)
	for {
		held := 0
		for _, c := range n2b.Debug().ShardsHeld {
			held += c
		}
		if held > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rejoined node never received repaired shards")
		}
		time.Sleep(25 * time.Millisecond)
	}

	waitSink(t, seed, 4000, 20*time.Second)
}

// TestStaleIncarnationRejected covers the split-brain guard: a join
// under a name that is alive with a newer incarnation is refused.
func TestStaleIncarnationRejected(t *testing.T) {
	spec := testSpec("n1", "n1", "n1", 10, 2, 0, 100)
	seed := startTestNode(t, "n1", "", spec)
	defer seed.Stop()
	n2 := startTestNode(t, "n2", seed.Addr(), spec)
	defer n2.Stop()

	_, err := seed.control.handleJoin(&joinReq{
		Name: "n2", Addr: "127.0.0.1:1", Incarnation: n2.incarnation.Load() - 1,
	})
	if err == nil {
		t.Fatal("stale-incarnation join accepted")
	}
}

// TestSeqKeyCycles pins the deterministic key function the e2e harness
// relies on for regeneration.
func TestSeqKeyCycles(t *testing.T) {
	for seq := int64(1); seq <= 32; seq++ {
		want := fmt.Sprintf("k%04d", (seq-1)%8)
		if got := SeqKey(seq, 8); got != want {
			t.Fatalf("SeqKey(%d, 8) = %q, want %q", seq, got, want)
		}
	}
}

// statefulLogged returns Logged of every stateful task the nodes host,
// by "node:task key".
func statefulLogged(nodes ...*Node) map[string]int64 {
	out := map[string]int64{}
	for _, n := range nodes {
		for _, c := range n.Debug().Cells {
			for _, ts := range c.Tasks {
				if ts.Stateful {
					out[n.cfg.Name+":"+ts.Key] = ts.Logged
				}
			}
		}
	}
	return out
}

// TestDaemonTasksKeepNoInputLog: in the daemon the sender's relay window
// is the input log, so a stateful task holds no tuples of its own however
// far the next save is — here it never comes — and neither does the task
// an adopter rebuilds; the window alone brings the stream back
// exactly-once.
func TestDaemonTasksKeepNoInputLog(t *testing.T) {
	const total = 4000
	spec := testSpec("n1", "n2", "n1", total, 8, 200, 1<<15)
	seed := startTestNode(t, "n1", "", spec)
	defer seed.Stop()
	n2 := startTestNode(t, "n2", seed.Addr(), spec)
	n3 := startTestNode(t, "n3", seed.Addr(), spec)
	defer n3.Stop()

	noLog := func(when string, nodes ...*Node) {
		t.Helper()
		logged := statefulLogged(nodes...)
		if len(logged) < 2 {
			t.Fatalf("%s: stateful tasks seen: %v, want the counter and the sink", when, logged)
		}
		for task, n := range logged {
			if n != 0 {
				t.Fatalf("%s: %s holds %d tuples in its input log", when, task, n)
			}
		}
	}
	waitCondition(t, 10*time.Second, "the counter and the sink to make progress", func() bool {
		s, ok := sinkOn(seed)
		return ok && s.Pairs > 500
	})
	noLog("mid-stream", seed, n2, n3)

	crashNode(n2)
	waitSink(t, seed, total, 20*time.Second)
	if owner := seed.Debug().Assign["count"]; owner == "n2" {
		t.Fatalf("count still assigned to the crashed node")
	}
	noLog("after adoption", seed, n3)
}

// TestReplayWindowWarning: a spec that saves less often than the relay
// window is long starts, and says so — in the log and the flight journal.
func TestReplayWindowWarning(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		saveEvery, replayBuffer int
		warn                    bool
	}{
		{"default window", 100, 0, false},
		{"window equals the interval", 128, 128, false},
		{"window shorter than the interval", 200, 100, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logs strings.Builder
			cfg := testNodeConfig("n1", "", testSpec("n1", "n1", "n1", 10, 2, 0, int64(tc.saveEvery)))
			cfg.ReplayBuffer = tc.replayBuffer
			cfg.LogWriter = &logs
			n, err := StartNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n.Stop()
			var notes []string
			for _, ev := range n.flight.Events() {
				if ev.Kind == obs.FlightConfigWarn {
					notes = append(notes, ev.Detail)
				}
			}
			if !tc.warn {
				if len(notes) != 0 || strings.Contains(logs.String(), "warning") {
					t.Fatalf("unexpected warning: %v\n%s", notes, logs.String())
				}
				return
			}
			want := fmt.Sprintf("save_every=%d exceeds replay_buffer=%d", tc.saveEvery, tc.replayBuffer)
			if len(notes) != 1 || !strings.Contains(notes[0], want) {
				t.Fatalf("flight notes %v, want one naming %q", notes, want)
			}
			if !strings.Contains(logs.String(), want) {
				t.Fatalf("log does not name %q:\n%s", want, logs.String())
			}
		})
	}
}
