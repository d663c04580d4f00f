package dht

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sr3/internal/id"
	"sr3/internal/simnet"
)

func buildRing(t testing.TB, n int, seed int64) *Ring {
	t.Helper()
	r, err := NewRing(DefaultConfig(), seed, n)
	if err != nil {
		t.Fatalf("build ring: %v", err)
	}
	return r
}

func TestSingleNodeIsItsOwnRoot(t *testing.T) {
	r := buildRing(t, 1, 1)
	n := r.nodes[r.order[0]]
	root, hops, err := n.Lookup(id.HashKey("anything"))
	if err != nil {
		t.Fatal(err)
	}
	if root != n.ID() || hops != 0 {
		t.Fatalf("root=%s hops=%d, want self/0", root.Short(), hops)
	}
}

func TestRoutingFindsGlobalClosest(t *testing.T) {
	for _, size := range []int{2, 5, 16, 64, 200} {
		size := size
		t.Run(fmt.Sprintf("n=%d", size), func(t *testing.T) {
			r := buildRing(t, size, int64(size))
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 30; i++ {
				key := id.Random(rng)
				want, _ := r.ClosestLive(key)
				start := r.nodes[r.order[rng.Intn(size)]]
				got, _, err := start.Lookup(key)
				if err != nil {
					t.Fatalf("lookup: %v", err)
				}
				if got != want {
					t.Fatalf("key %s routed to %s, closest is %s", key.Short(), got.Short(), want.Short())
				}
			}
		})
	}
}

func TestRoutingHopsLogarithmic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := buildRing(t, 512, 7)
	rng := rand.New(rand.NewSource(5))
	total := 0
	const probes = 100
	for i := 0; i < probes; i++ {
		key := id.Random(rng)
		start := r.nodes[r.order[rng.Intn(r.Size())]]
		_, hops, err := start.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		total += hops
	}
	avg := float64(total) / probes
	// log16(512) ≈ 2.25; leaf-set shortcuts keep it low. Anything beyond
	// 5 average hops means prefix routing is broken.
	if avg > 5 {
		t.Fatalf("average hops %.2f too high for 512 nodes", avg)
	}
}

func TestLeafSetsAccurate(t *testing.T) {
	r := buildRing(t, 100, 3)
	// For every node, its leaf set must contain its true ring successor.
	for _, nid := range r.order {
		var succ id.ID
		found := false
		for _, other := range r.order {
			if other == nid {
				continue
			}
			if !found || other.Sub(nid).Cmp(succ.Sub(nid)) < 0 {
				succ = other
				found = true
			}
		}
		inLeaf := false
		for _, l := range r.nodes[nid].LeafSet() {
			if l == succ {
				inLeaf = true
				break
			}
		}
		if !inLeaf {
			t.Fatalf("node %s leaf set missing true successor %s", nid.Short(), succ.Short())
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	r := buildRing(t, 50, 11)
	n := r.nodes[r.order[0]]
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%d", i)
		val := []byte(fmt.Sprintf("value-%d", i))
		if err := n.Put(key, val); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	other := r.nodes[r.order[25]]
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%d", i)
		got, err := other.Get(key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if string(got) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("get %s = %q", key, got)
		}
	}
}

func TestGetMissingKey(t *testing.T) {
	r := buildRing(t, 10, 13)
	n := r.nodes[r.order[0]]
	if _, err := n.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestDelete(t *testing.T) {
	r := buildRing(t, 20, 17)
	n := r.nodes[r.order[0]]
	if err := n.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := n.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound after delete", err)
	}
}

func TestKVSurvivesRootFailure(t *testing.T) {
	r := buildRing(t, 60, 19)
	writer := r.nodes[r.order[0]]
	const key = "important-state"
	if err := writer.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	root, ok := r.ClosestLive(id.HashKey(key))
	if !ok {
		t.Fatal("no root")
	}
	r.Fail(root)
	r.MaintenanceRound()

	reader, err := r.AnyLive()
	if err != nil {
		t.Fatal(err)
	}
	got, err := reader.Get(key)
	if err != nil {
		t.Fatalf("get after root failure: %v", err)
	}
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
}

func TestRoutingSurvivesMultipleFailures(t *testing.T) {
	r := buildRing(t, 120, 23)
	rng := rand.New(rand.NewSource(42))

	// Kill 20 random nodes simultaneously.
	live := r.LiveIDs()
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, nid := range live[:20] {
		r.Fail(nid)
	}
	r.MaintenanceRound()
	r.MaintenanceRound()

	for i := 0; i < 25; i++ {
		key := id.Random(rng)
		want, _ := r.ClosestLive(key)
		start, err := r.AnyLive()
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := start.Lookup(key)
		if err != nil {
			t.Fatalf("lookup after failures: %v", err)
		}
		if got != want {
			t.Fatalf("key %s routed to %s, closest live is %s", key.Short(), got.Short(), want.Short())
		}
	}
}

func TestLeafRepairRefillsHalves(t *testing.T) {
	r := buildRing(t, 80, 29)
	victim := r.nodes[r.order[10]]
	before := victim.LeafSet()
	if len(before) == 0 {
		t.Fatal("empty leaf set")
	}
	// Kill a third of the victim's leaf set.
	for i, l := range before {
		if i%3 == 0 {
			r.Fail(l)
		}
	}
	victim.MaintenanceTick()
	victim.MaintenanceTick()
	after := victim.LeafSet()
	for _, l := range after {
		if !r.Net.Alive(l) {
			t.Fatalf("leaf set still contains dead node %s", l.Short())
		}
	}
	// 80-node ring with 24-leaf config: halves must be refilled to
	// capacity from live nodes.
	if len(after) < len(before)-2 {
		t.Fatalf("leaf set not repaired: %d -> %d members", len(before), len(after))
	}
}

func TestJoinThroughDeadBootstrapFails(t *testing.T) {
	r := buildRing(t, 5, 31)
	dead := r.order[2]
	r.Fail(dead)

	node, err := NewNode(id.HashKey("late-joiner"), r.Net, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Join(dead); err == nil {
		t.Fatal("join via dead bootstrap should fail")
	}
	if node.Joined() {
		t.Fatal("node should not be joined")
	}
}

func TestRouteBeforeJoin(t *testing.T) {
	net := simnet.NewNetwork()
	node, err := NewNode(id.HashKey("loner"), net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := node.Lookup(id.HashKey("x")); !errors.Is(err, ErrNotJoined) {
		t.Fatalf("got %v, want ErrNotJoined", err)
	}
}

func TestMaintenanceGeneratesBoundedTraffic(t *testing.T) {
	r := buildRing(t, 64, 41)
	r.Net.ResetTraffic()
	r.MaintenanceRound()
	tr := r.Net.Traffic()
	var total int64
	for _, b := range tr.BytesSentPerNode {
		total += b
	}
	if total == 0 {
		t.Fatal("maintenance generated no traffic")
	}
	perNode := float64(total) / 64
	// Each node pings ~leafset(24) + rt entries (~45 for 64 nodes), each
	// ping+ack ~96 bytes. Far below 20 KB per node.
	if perNode > 20000 {
		t.Fatalf("maintenance traffic %f bytes/node too high", perNode)
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(DefaultConfig(), 1, 0); err == nil {
		t.Fatal("zero-size ring should fail")
	}
}

func TestBuildConvergedMatchesJoinedBehavior(t *testing.T) {
	r, err := BuildConverged(DefaultConfig(), 77, 200)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		key := id.Random(rng)
		want, _ := r.ClosestLive(key)
		start := r.nodes[r.order[rng.Intn(200)]]
		got, hops, err := start.Lookup(key)
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		if got != want {
			t.Fatalf("key %s routed to %s, closest is %s", key.Short(), got.Short(), want.Short())
		}
		if hops > 8 {
			t.Fatalf("converged ring took %d hops", hops)
		}
	}
	// Leaf sets exact: successor must be present.
	for _, nid := range r.order[:50] {
		var succ id.ID
		found := false
		for _, other := range r.order {
			if other == nid {
				continue
			}
			if !found || other.Sub(nid).Cmp(succ.Sub(nid)) < 0 {
				succ = other
				found = true
			}
		}
		ok := false
		for _, l := range r.nodes[nid].LeafSet() {
			if l == succ {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("node %s converged leaf set missing successor", nid.Short())
		}
	}
}

func TestBuildConvergedKV(t *testing.T) {
	r, err := BuildConverged(DefaultConfig(), 78, 60)
	if err != nil {
		t.Fatal(err)
	}
	n := r.nodes[r.order[0]]
	if err := n.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := r.nodes[r.order[30]].Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("get: %q %v", got, err)
	}
}
