package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"sr3/internal/obs"
)

// spanBatch encodes a set of span records as one binary batch — the
// shape obsDumpResp carries over the wire.
func spanBatch(recs ...obs.SpanRecord) []byte {
	var b []byte
	for _, r := range recs {
		b = obs.AppendSpanRecord(b, r)
	}
	return b
}

// TestMergeTimelineCausalOrder pins the post-mortem ordering contract:
// within a trace a child span never sorts before its parent even when
// the child's node has a skew-behind clock, and exact-tie ordering is
// deterministic (node, then flight-before-span, then seq/span).
func TestMergeTimelineCausalOrder(t *testing.T) {
	// Seed observes the root at t=1000; the adopter's clock is 500ns
	// behind, so its child recover span claims Start=600 < parent start.
	dumps := []obsDumpResp{
		{
			Node: "seed",
			Spans: spanBatch(
				obs.SpanRecord{Trace: 7, Span: 7, Phase: obs.PhaseSelfHeal, Start: 1000, End: 5000},
				obs.SpanRecord{Trace: 7, Span: 8, Parent: 7, Phase: obs.PhaseAdopt, Start: 1200, End: 4000},
			),
			Flight: []obs.FlightEvent{
				{Seq: 1, At: 900, Kind: obs.FlightVerdict, Node: "dead-node", Detail: "declared dead"},
			},
		},
		{
			Node: "adopter",
			Spans: spanBatch(
				obs.SpanRecord{Trace: 7, Span: 9, Parent: 8, Phase: obs.PhaseRecover, Start: 600, End: 3500},
				obs.SpanRecord{Trace: 7, Span: 10, Parent: 9, Phase: obs.PhaseFetch, Start: 700, End: 900},
			),
		},
	}
	entries := mergeTimeline(dumps)
	if len(entries) != 5 {
		t.Fatalf("entries = %d, want 5", len(entries))
	}
	pos := map[string]int{}
	for i, e := range entries {
		key := e.Phase
		if e.Type == "flight" {
			key = e.Kind
		}
		pos[key] = i
	}
	// The verdict flight note precedes everything span-side.
	if pos[obs.FlightVerdict] != 0 {
		t.Fatalf("verdict at %d, want 0; entries %+v", pos[obs.FlightVerdict], entries)
	}
	// Causal lift: recover (raw Start 600) sorts after adopt (1200), and
	// fetch after recover, despite the adopter's skewed clock.
	if pos[obs.PhaseSelfHeal] > pos[obs.PhaseAdopt] ||
		pos[obs.PhaseAdopt] > pos[obs.PhaseRecover] ||
		pos[obs.PhaseRecover] > pos[obs.PhaseFetch] {
		t.Fatalf("causal order violated: %+v", pos)
	}
	// The flight note about a third node is annotated with its subject.
	for _, e := range entries {
		if e.Type == "flight" && !strings.Contains(e.Detail, "about=dead-node") {
			t.Fatalf("flight entry lost subject annotation: %+v", e)
		}
	}
	// Determinism: merging the same dumps again yields the same order.
	again := mergeTimeline(dumps)
	for i := range entries {
		if entries[i] != again[i] {
			t.Fatalf("merge not deterministic at %d: %+v vs %+v", i, entries[i], again[i])
		}
	}
}

// TestMergeTimelineDedupAcrossDumps: a span present in two journals
// (the seed already stitched the adopter's spans) appears once.
func TestMergeTimelineDedupAcrossDumps(t *testing.T) {
	rec := obs.SpanRecord{Trace: 3, Span: 3, Phase: obs.PhaseSelfHeal, Start: 10, End: 20}
	entries := mergeTimeline([]obsDumpResp{
		{Node: "a", Spans: spanBatch(rec)},
		{Node: "b", Spans: spanBatch(rec)},
	})
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1 (dedup)", len(entries))
	}
	if entries[0].Node != "a" {
		t.Fatalf("owner = %s, want first importer a", entries[0].Node)
	}
}

// startHTTPSeed starts a seed that serves its HTTP surface on a free
// port, its config first adjusted by tune when that is not nil.
func startHTTPSeed(t *testing.T, spec *Spec, tune func(*NodeConfig)) *Node {
	t.Helper()
	cfg := testNodeConfig("n1", "", spec)
	cfg.HTTPListen = "127.0.0.1:0"
	if tune != nil {
		tune(&cfg)
	}
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatalf("StartNode(n1): %v", err)
	}
	return n
}

// seedGet reads one path of n's HTTP surface.
func seedGet(t *testing.T, n *Node, path string) string {
	t.Helper()
	body, err := httpGet("http://" + n.httpAddr + path)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// clusterDebugOf decodes the seed's /debug/sr3/cluster.
func clusterDebugOf(t *testing.T, seed *Node) ClusterDebug {
	t.Helper()
	var cd ClusterDebug
	if err := json.Unmarshal([]byte(seedGet(t, seed, "/debug/sr3/cluster")), &cd); err != nil {
		t.Fatalf("decode /debug/sr3/cluster: %v", err)
	}
	return cd
}

// TestFederationUnderChurn reads the seed's cluster endpoints through a
// member's full lifecycle: join (series appear), crash (series gone once
// the view calls it dead), rejoin under a new incarnation (its series
// reappear, the superseded incarnation's never).
func TestFederationUnderChurn(t *testing.T) {
	spec := testSpec("n1", "n2", "n1", 100000, 8, 50, 100)
	seed := startHTTPSeed(t, spec, nil)
	defer seed.Stop()
	n2 := startTestNode(t, "n2", seed.Addr(), spec)

	scrape := seedGet(t, seed, "/metrics/cluster")
	for _, node := range []string{"n1", "n2"} {
		if !strings.Contains(scrape, `sr3_node_up{node="`+node+`"} 1`) {
			t.Fatalf("federated scrape missing node=%q series:\n%.2000s", node, scrape)
		}
	}
	if cd := clusterDebugOf(t, seed); cd.Nodes["n2"].Node != "n2" {
		t.Fatalf("cluster debug missing n2: %+v", cd.Nodes)
	}

	// Crash n2 and wait for the death verdict: from then on the seed does
	// not ask it, so no node="n2" series can appear.
	oldInc := n2.incarnation.Load()
	crashNode(n2)
	waitCondition(t, 5*time.Second, "n2 declared dead", func() bool {
		v := seed.currentView()
		m := v.member("n2")
		return m != nil && !m.Alive
	})
	if scrape = seedGet(t, seed, "/metrics/cluster"); strings.Contains(scrape, `node="n2"`) {
		t.Fatal("dead member's series in the federated scrape")
	}
	if cd := clusterDebugOf(t, seed); cd.Nodes["n2"].Node != "" {
		t.Fatalf("cluster debug shows dead n2: %+v", cd.Nodes)
	}

	// Rejoin under the same name: the scrape carries the new incarnation's
	// series, never the dead process's.
	n2b := startTestNode(t, "n2", seed.Addr(), spec)
	defer n2b.Stop()
	newInc := n2b.incarnation.Load()
	if newInc <= oldInc {
		t.Fatalf("rejoin incarnation %d not newer than %d", newInc, oldInc)
	}
	scrape = seedGet(t, seed, "/metrics/cluster")
	if !strings.Contains(scrape, fmt.Sprintf(`sr3_node_incarnation{node="n2"} %d`, newInc)) {
		t.Fatalf("rejoined member's series missing from federation:\n%.2000s", scrape)
	}
	if strings.Contains(scrape, fmt.Sprint(oldInc)) {
		t.Fatalf("superseded incarnation %d in the federated scrape", oldInc)
	}
}

// TestHungMembersCostOneTimeout: two members that accept a connection and
// never answer cost the seed's post-mortem and cluster scrape one
// rpcTimeout between them, not one each, and the scrape still carries
// what the seed itself answered.
func TestHungMembersCostOneTimeout(t *testing.T) {
	defer func(d time.Duration) { rpcTimeout = d }(rpcTimeout)
	rpcTimeout = 300 * time.Millisecond
	seed := startHTTPSeed(t, idleSpec(), func(c *NodeConfig) { c.DeadAfter = time.Minute })
	defer seed.Stop()

	// The hung members read every request and never answer; a connection
	// ends when the seed gives up on it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = io.Copy(io.Discard, c)
				_ = c.Close()
			}()
		}
	}()
	for _, name := range []string{"hung1", "hung2"} {
		if _, err := seed.control.handleJoin(&joinReq{Name: name, Addr: ln.Addr().String(), Incarnation: 1}); err != nil {
			t.Fatal(err)
		}
	}

	budget := rpcTimeout * 3 / 2
	begin := time.Now()
	seedGet(t, seed, "/debug/sr3/postmortem")
	if took := time.Since(begin); took >= budget {
		t.Fatalf("post-mortem took %v with two hung members, want < %v", took, budget)
	}
	begin = time.Now()
	scrape := seedGet(t, seed, "/metrics/cluster")
	if took := time.Since(begin); took >= budget {
		t.Fatalf("cluster scrape took %v with two hung members, want < %v", took, budget)
	}
	if !strings.Contains(scrape, `sr3_node_up{node="n1"} 1`) {
		t.Fatalf("cluster scrape lost the seed's own series:\n%.2000s", scrape)
	}
}

// waitCondition polls an arbitrary predicate.
func waitCondition(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTracedClusterRecovery runs a kill-owner recovery across three
// in-process nodes and asserts the tentpole's core invariant: ONE
// connected trace rooted at the seed's self-heal verdict whose spans
// come from at least two distinct nodes, with every span reachable from
// the root.
func TestTracedClusterRecovery(t *testing.T) {
	spec := testSpec("n1", "n3", "n2", 100000, 8, 100, 50)
	seed := startTestNode(t, "n1", "", spec)
	defer seed.Stop()
	n2 := startTestNode(t, "n2", seed.Addr(), spec)
	defer n2.Stop()
	n3 := startTestNode(t, "n3", seed.Addr(), spec)

	// Let some tuples flow so the counter has state to recover.
	waitCondition(t, 10*time.Second, "sink progress", func() bool {
		s, ok := sinkOn(n2)
		return ok && len(s.MaxByKey) > 0
	})

	crashNode(n3)
	// The counter moves to a survivor and the sink keeps advancing.
	waitCondition(t, 10*time.Second, "counter re-homed", func() bool {
		owner := seed.currentView().Assign["count"]
		return owner != "" && owner != "n3"
	})

	// The recovery trace closes once the adoption lands.
	waitCondition(t, 10*time.Second, "selfheal root recorded", func() bool {
		for _, rec := range seed.spans.Spans() {
			if rec.Phase == obs.PhaseSelfHeal {
				return true
			}
		}
		return false
	})

	// Stitch cluster-wide and validate connectivity. The stitch polls:
	// the ingress-side flow span (the second process's contribution)
	// records only when the first traced replay frame arrives.
	var rootTrace uint64
	byID := map[uint64]obs.SpanRecord{}
	nodes := map[string]bool{}
	phases := map[string]bool{}
	waitCondition(t, 10*time.Second, "trace spans from >= 2 nodes", func() bool {
		seed.hub.stitchAll()
		spans := seed.hub.col.Spans()
		rootTrace = 0
		for _, rec := range spans {
			if rec.Phase == obs.PhaseSelfHeal {
				rootTrace = rec.Trace
			}
		}
		if rootTrace == 0 {
			return false
		}
		byID = map[uint64]obs.SpanRecord{}
		nodes = map[string]bool{}
		phases = map[string]bool{}
		for _, rec := range spans {
			if rec.Trace != rootTrace {
				continue
			}
			byID[rec.Span] = rec
			phases[rec.Phase] = true
			for _, a := range rec.Attrs {
				if a.Key == "node" {
					nodes[a.Str] = true
				}
			}
		}
		return len(nodes) >= 2
	})
	for _, want := range []string{obs.PhaseSelfHeal, obs.PhaseDetect, obs.PhaseAdopt, obs.PhaseRecover, obs.PhaseFetch} {
		if !phases[want] {
			t.Fatalf("trace %d missing phase %s; have %v", rootTrace, want, phases)
		}
	}
	// Full parent connectivity: every span walks up to the root.
	for id, rec := range byID {
		cur, hops := rec, 0
		for cur.Parent != 0 && hops < 64 {
			parent, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %d (%s) has dangling parent %d", id, rec.Phase, cur.Parent)
			}
			cur, hops = parent, hops+1
		}
		if cur.Span != rootTrace {
			t.Fatalf("span %d (%s) does not reach root", id, rec.Phase)
		}
	}
	// The seed's per-phase MTTR histograms materialized via the metrics
	// sink half of the tracer.
	if c := seed.reg.Counter("sr3_phase_selfheal_total").Value(); c < 1 {
		t.Fatalf("sr3_phase_selfheal_total = %d, want >= 1", c)
	}
}
