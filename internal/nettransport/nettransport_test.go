package nettransport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/recovery"
	"sr3/internal/scribe"
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

// TestCallTimeoutOnStalledServer registers a handler that never replies
// within the deadline: the caller must get ErrTimeout promptly instead of
// hanging for the full stall.
func TestCallTimeoutOnStalledServer(t *testing.T) {
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
// sockets: a state is sharded onto leaf-set nodes through TCP, the owner
// crashes, and star recovery fetches and reassembles the shards over the
// wire.
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

	snap := make([]byte, 40_000)
	rand.New(rand.NewSource(7)).Read(snap)
	owner := all[4]
	mgr := mgrs[owner.ID()]
	placement, err := mgr.Save("tcp-app", snap, 6, 2, mgr.NextVersion(1))
	if err != nil {
		t.Fatalf("save over tcp: %v", err)
	}

	// Crash the owner; a surviving node fetches one live replica of every
	// shard index over the wire and reassembles.
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
	res, err := replMgr.RecoverDirect("tcp-app", recovery.Star, recovery.DefaultOptions())
	if err != nil {
		t.Fatalf("star recovery over tcp: %v", err)
	}
	if !bytes.Equal(res.Snapshot, snap) {
		t.Fatal("recovered state differs after TCP recovery")
	}
}

// TestScribeMulticastOverTCP builds a multicast tree across TCP-backed
// nodes and delivers a message to every subscriber over the wire.
func TestScribeMulticastOverTCP(t *testing.T) {
	dht.RegisterWire()
	scribe.RegisterWire()
	gob.Register("") // multicast payloads in this test are strings
	n := New()
	defer n.Close()

	const nodes = 10
	cfg := dht.Config{LeafSetSize: 8}
	all := make([]*dht.Node, 0, nodes)
	layers := make([]*scribe.Layer, 0, nodes)
	for i := 0; i < nodes; i++ {
		node, err := dht.NewNode(id.HashKey(fmt.Sprintf("scribe-tcp-%d", i)), n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			node.Bootstrap()
		} else if err := node.Join(all[0].ID()); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		all = append(all, node)
		layers = append(layers, scribe.Attach(node, scribe.Config{MaxFanout: 2}))
	}

	var mu sync.Mutex
	got := make(map[int][]any)
	for i, l := range layers {
		i := i
		if err := l.Join("tcp-topic", func(topic string, payload any, size int) {
			mu.Lock()
			defer mu.Unlock()
			got[i] = append(got[i], payload)
		}); err != nil {
			t.Fatalf("scribe join %d: %v", i, err)
		}
	}
	if err := layers[nodes-1].Multicast("tcp-topic", "over-the-wire", 13); err != nil {
		t.Fatalf("multicast: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < nodes; i++ {
		if len(got[i]) != 1 || got[i][0] != "over-the-wire" {
			t.Fatalf("subscriber %d got %v", i, got[i])
		}
	}
}

func TestDialRetryLateBindingListener(t *testing.T) {
	// Reserve a port, release it, and only re-listen after the first dial
	// attempts have already failed: the retry loop must ride over the gap.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	var mu sync.Mutex
	var late net.Listener
	time.AfterFunc(60*time.Millisecond, func() {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the test will report exhaustion
		}
		mu.Lock()
		late = l
		mu.Unlock()
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				_ = c.Close()
			}
		}()
	})
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		if late != nil {
			_ = late.Close()
		}
	}()

	conn, _, err := dialRetryN(addr, DialRetryPolicy{Attempts: 8, BaseDelay: 20 * time.Millisecond, MaxDelay: 80 * time.Millisecond}, nil)
	if err != nil {
		t.Fatalf("dial through late-binding listener: %v", err)
	}
	_ = conn.Close()
}

func TestDialRetryExhaustion(t *testing.T) {
	// Nothing ever listens on the reserved port: every attempt must fail
	// and the typed error must surface after the full backoff schedule.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	start := time.Now()
	_, _, err = dialRetryN(addr, DialRetryPolicy{Attempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 20 * time.Millisecond}, nil)
	if !errors.Is(err, ErrDialExhausted) {
		t.Fatalf("want ErrDialExhausted, got %v", err)
	}
	// Two sleeps happen between three attempts: 10ms then 20ms minimum.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("backoff not applied: done in %v", elapsed)
	}
}

func TestCallWrapsDialExhaustion(t *testing.T) {
	// A peer whose listener vanished without being marked down (crashed
	// process, not an orderly Fail) must yield both ErrNodeDown (routing
	// contract) and ErrDialExhausted (retry detail) from Call.
	n := New()
	defer n.Close()
	n.SetDialRetryPolicy(DialRetryPolicy{Attempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond})
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
	if !errors.Is(err, ErrDialExhausted) {
		t.Fatalf("want ErrDialExhausted wrap, got %v", err)
	}
}
