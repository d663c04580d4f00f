package nettransport

import (
	"errors"
	"testing"
	"time"

	"sr3/internal/id"
	"sr3/internal/metrics"
	"sr3/internal/simnet"
)

// TestTransportInstruments: calls and dials are counted; a crashed
// listener shows up as one more dial and one dial failure.
func TestTransportInstruments(t *testing.T) {
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
	for i := 0; i < 3; i++ {
		if _, err := n.Call(a, b, simnet.Message{Kind: "ping"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("sr3_net_calls_total").Value(); got != 3 {
		t.Fatalf("calls = %d, want 3", got)
	}
	if got := reg.Counter("sr3_net_dials_total").Value(); got != 3 {
		t.Fatalf("dials = %d, want 3 (one per healthy call)", got)
	}

	// Crash b's listener without marking it down: Call dials once and
	// reports the peer down.
	n.mu.Lock()
	_ = n.servers[b].ln.Close()
	n.mu.Unlock()
	if _, err := n.Call(a, b, simnet.Message{Kind: "ping"}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("want ErrNodeDown, got %v", err)
	}
	if got := reg.Counter("sr3_net_dials_total").Value(); got != 4 {
		t.Fatalf("dials = %d, want 4", got)
	}
	if got := reg.Counter("sr3_net_dial_failures_total").Value(); got != 1 {
		t.Fatalf("dial failures = %d, want 1", got)
	}

	// Disabling stops counting without disturbing traffic accounting.
	n.SetMetrics(nil)
	if _, err := n.Call(a, a, simnet.Message{Kind: "ping"}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sr3_net_calls_total").Value(); got != 4 {
		t.Fatalf("calls after disable = %d, want 4", got)
	}
}

// TestTransportTimeoutCounter: a peer that accepts but never replies
// must increment the I/O timeout counter when the deadline fires.
func TestTransportTimeoutCounter(t *testing.T) {
	n := New()
	defer n.Close()
	reg := metrics.NewRegistry()
	n.SetMetrics(reg)
	n.SetIOTimeout(50 * time.Millisecond)

	a, b := id.HashKey("ta"), id.HashKey("tb")
	if err := n.Register(a, func(id.ID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{Kind: "ok"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	stall := make(chan struct{})
	defer close(stall)
	if err := n.Register(b, func(id.ID, simnet.Message) (simnet.Message, error) {
		<-stall // hold the reply past the deadline
		return simnet.Message{Kind: "ok"}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call(a, b, simnet.Message{Kind: "ping"}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if got := reg.Counter("sr3_net_io_timeouts_total").Value(); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
}
