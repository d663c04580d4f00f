package nettransport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/metrics"
	"sr3/internal/recovery"
	"sr3/internal/simnet"
)

func TestRawCallRoundTrip(t *testing.T) {
	n := New()
	defer n.Close()
	a, b := id.HashKey("a"), id.HashKey("b")
	echo := func(from id.ID, msg simnet.Message) (simnet.Message, error) {
		return simnet.Message{Kind: "echo", Size: msg.Size, Payload: msg.Payload}, nil
	}
	if err := n.Register(a, echo); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(b, echo); err != nil {
		t.Fatal(err)
	}
	reply, err := n.Call(a, b, simnet.Message{Kind: "ping", Size: 10, Payload: "over-tcp"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Payload != "over-tcp" {
		t.Fatalf("payload %v", reply.Payload)
	}
	if _, ok := n.Addr(b); !ok {
		t.Fatal("no address recorded")
	}
}

func TestCallErrors(t *testing.T) {
	n := New()
	defer n.Close()
	a := id.HashKey("a")
	boomErr := errors.New("boom")
	_ = n.Register(a, func(id.ID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, boomErr
	})
	b := id.HashKey("b")
	_ = n.Register(b, func(id.ID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{Kind: "ok"}, nil
	})

	if _, err := n.Call(a, id.HashKey("ghost"), simnet.Message{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown: %v", err)
	}
	// Remote handler errors surface as call errors.
	if _, err := n.Call(b, a, simnet.Message{Kind: "x"}); err == nil {
		t.Fatal("handler error swallowed")
	}
	// Failed node: fast error.
	n.Fail(a)
	if _, err := n.Call(b, a, simnet.Message{Kind: "x"}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("down: %v", err)
	}
	if n.Alive(a) {
		t.Fatal("a should be down")
	}
	// Crashed node cannot send either.
	if _, err := n.Call(a, b, simnet.Message{Kind: "x"}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("from down: %v", err)
	}
	if err := n.Register(b, nil); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup: %v", err)
	}
}

// TestStalledServerTimesOut registers a handler that never replies
// within the deadline: the caller must get ErrTimeout promptly instead of
// hanging for the full stall.
func TestStalledServerTimesOut(t *testing.T) {
	n := New()
	defer n.Close()
	n.SetIOTimeout(100 * time.Millisecond)

	a := id.HashKey("caller")
	stalled := id.HashKey("stalled")
	release := make(chan struct{})
	_ = n.Register(a, func(id.ID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	})
	_ = n.Register(stalled, func(id.ID, simnet.Message) (simnet.Message, error) {
		<-release // simulate a wedged server: accepted, never replies
		return simnet.Message{Kind: "late"}, nil
	})

	start := time.Now()
	_, err := n.Call(a, stalled, simnet.Message{Kind: "ping"})
	elapsed := time.Since(start)
	close(release)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout took %v; deadline not applied", elapsed)
	}
}

// TestDHTOverTCP runs a real Pastry overlay over loopback TCP sockets:
// nodes join through the wire protocol, route keys, and store/fetch KV
// pairs, all via gob-encoded frames.
func TestDHTOverTCP(t *testing.T) {
	dht.RegisterWire()
	n := New()
	defer n.Close()

	const nodes = 12
	cfg := dht.Config{LeafSetSize: 8, KVReplicas: 2}
	all := make([]*dht.Node, 0, nodes)
	for i := 0; i < nodes; i++ {
		node, err := dht.NewNode(id.HashKey(fmt.Sprintf("tcp-node-%d", i)), n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			node.Bootstrap()
		} else {
			if err := node.Join(all[0].ID()); err != nil {
				t.Fatalf("join node %d: %v", i, err)
			}
		}
		all = append(all, node)
	}

	// Routing: every node agrees on the root for a key, and it is the
	// globally closest.
	key := id.HashKey("tcp-key")
	var want id.ID
	found := false
	for _, node := range all {
		if !found || id.Closer(key, node.ID(), want) {
			want = node.ID()
			found = true
		}
	}
	for i, node := range all {
		got, _, err := node.Lookup(key)
		if err != nil {
			t.Fatalf("lookup from node %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("node %d routed %s to %s, want %s", i, key.Short(), got.Short(), want.Short())
		}
	}

	// KV over the wire.
	if err := all[3].Put("greeting", []byte("hello over tcp")); err != nil {
		t.Fatal(err)
	}
	v, err := all[9].Get("greeting")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "hello over tcp" {
		t.Fatalf("got %q", v)
	}

	// Kill the key's root; replicas must still serve it.
	root, _, err := all[0].Lookup(id.HashKey("greeting"))
	if err != nil {
		t.Fatal(err)
	}
	n.Fail(root)
	for _, node := range all {
		if node.ID() != root {
			node.MaintenanceTick()
		}
	}
	var reader *dht.Node
	for _, node := range all {
		if node.ID() != root {
			reader = node
			break
		}
	}
	v, err = reader.Get("greeting")
	if err != nil {
		t.Fatalf("get after root crash: %v", err)
	}
	if string(v) != "hello over tcp" {
		t.Fatalf("got %q after crash", v)
	}
}

// TestConcurrentCallsOverTCP hammers one server from many goroutines.
func TestConcurrentCallsOverTCP(t *testing.T) {
	n := New()
	defer n.Close()
	srv := id.HashKey("server")
	_ = n.Register(srv, func(from id.ID, msg simnet.Message) (simnet.Message, error) {
		return simnet.Message{Kind: "ack", Payload: msg.Payload}, nil
	})
	clients := make([]id.ID, 6)
	for i := range clients {
		clients[i] = id.HashKey(fmt.Sprintf("client-%d", i))
		_ = n.Register(clients[i], func(id.ID, simnet.Message) (simnet.Message, error) {
			return simnet.Message{}, nil
		})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 60)
	for _, c := range clients {
		wg.Add(1)
		go func(c id.ID) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				want := fmt.Sprintf("msg-%d", i)
				reply, err := n.Call(c, srv, simnet.Message{Kind: "m", Payload: want})
				if err != nil {
					errs <- err
					return
				}
				if reply.Payload != want {
					errs <- fmt.Errorf("got %v want %v", reply.Payload, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSR3RecoveryOverTCP exercises the full save/recover path over real
// sockets: a 2 MB state is sharded m=8 r=3 onto leaf-set nodes through
// TCP, the owner crashes, and each mechanism — star, line and tree —
// fetches and reassembles the shards over the wire, byte-exact, moving
// the shard bodies as raw chunk frames.
func TestSR3RecoveryOverTCP(t *testing.T) {
	dht.RegisterWire()
	recovery.RegisterWire()
	n := New()
	defer n.Close()

	const nodes = 14
	cfg := dht.Config{LeafSetSize: 8, KVReplicas: 2}
	all := make([]*dht.Node, 0, nodes)
	mgrs := make(map[id.ID]*recovery.Manager, nodes)
	for i := 0; i < nodes; i++ {
		node, err := dht.NewNode(id.HashKey(fmt.Sprintf("sr3-tcp-%d", i)), n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			node.Bootstrap()
		} else if err := node.Join(all[0].ID()); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		mgrs[node.ID()] = recovery.NewManager(node)
		all = append(all, node)
	}

	snap := make([]byte, 2_000_000)
	rand.New(rand.NewSource(7)).Read(snap)
	owner := all[4]
	mgr := mgrs[owner.ID()]
	placement, err := mgr.Save("tcp-app", snap, 8, 3, mgr.NextVersion(1))
	if err != nil {
		t.Fatalf("save over tcp: %v", err)
	}

	// Crash the owner; a surviving node recovers every shard index over
	// the wire and reassembles.
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
	replMgr := mgrs[replacement.ID()]
	lookup, err := replMgr.LookupPlacement("tcp-app")
	if err != nil {
		t.Fatalf("placement lookup over tcp: %v", err)
	}
	if lookup.Owner != placement.Owner || lookup.M != placement.M {
		t.Fatal("placement mismatch after wire round trip")
	}
	for _, mech := range []recovery.Mechanism{recovery.Star, recovery.Line, recovery.Tree} {
		t.Run(mech.String(), func(t *testing.T) {
			before := n.DataPlane().RawBytes
			res, err := replMgr.RecoverDirect("tcp-app", mech, recovery.DefaultOptions())
			if err != nil {
				t.Fatalf("%s recovery over tcp: %v", mech, err)
			}
			if !bytes.Equal(res.Snapshot, snap) {
				t.Fatalf("recovered state differs after %s recovery over tcp", mech)
			}
			if moved := n.DataPlane().RawBytes - before; moved < int64(len(snap)) {
				t.Fatalf("%s moved %d raw bytes for a %d-byte state", mech, moved, len(snap))
			}
		})
	}
}

// TestDialRetryExhaustion: an exchange's dial schedule is a single
// attempt. With an address nothing listens on it makes exactly one dial
// and returns at once — no retry, no backoff sleep between attempts —
// with an error that wraps ErrNodeDown, so a caller's own loop decides
// whether and when to try again.
func TestDialRetryExhaustion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	n := New()
	defer n.Close()
	reg := metrics.NewRegistry()
	n.SetMetrics(reg)
	start := time.Now()
	_, err = n.Exchange(addr, id.HashKey("caller"), simnet.Message{Kind: "ping"}, time.Second)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("want ErrNodeDown wrap, got %v", err)
	}
	for name, want := range map[string]int64{
		"sr3_net_calls_total":         1,
		"sr3_net_dials_total":         1,
		"sr3_net_dial_failures_total": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	// A refused loopback dial returns in microseconds; anything near
	// 150ms means the call slept before reporting.
	if elapsed > 150*time.Millisecond {
		t.Fatalf("unreachable peer took %v to report", elapsed)
	}
}

// TestCallWrapsDialExhaustion: a peer whose listener vanished without
// being marked down (a crashed process, not an orderly Fail) must yield
// ErrNodeDown from Call — the routing contract — after its one dial.
func TestCallWrapsDialExhaustion(t *testing.T) {
	n := New()
	defer n.Close()
	reg := metrics.NewRegistry()
	n.SetMetrics(reg)
	a, b := id.HashKey("a"), id.HashKey("b")
	ok := func(id.ID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{Kind: "ok"}, nil
	}
	if err := n.Register(a, ok); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(b, ok); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	_ = n.servers[b].ln.Close() // crash the listener, keep down=false
	n.mu.Unlock()

	_, err := n.Call(a, b, simnet.Message{Kind: "ping"})
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("want ErrNodeDown wrap, got %v", err)
	}
	for name, want := range map[string]int64{
		"sr3_net_dials_total":         1,
		"sr3_net_dial_failures_total": 1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}
