package nettransport

import (
	"errors"
	"net"
	"testing"
	"time"

	"sr3/internal/id"
	"sr3/internal/metrics"
	"sr3/internal/obs"
	"sr3/internal/overload"
	"sr3/internal/simnet"
)

func TestClassifyKind(t *testing.T) {
	cases := map[string]TrafficClass{
		"sr3.hb.probe":     ClassControl,
		"sr3.hb.suspect":   ClassControl,
		"dht.join":         ClassControl,
		"dht.route":        ClassControl,
		"scribe.mcast":     ClassControl,
		"dht.kv.put":       ClassRecovery,
		"dht.kv.fetch":     ClassRecovery,
		"sr3.shard.store":  ClassRecovery,
		"sr3.line.collect": ClassRecovery,
		"sr3.tree.collect": ClassRecovery,
		"sr3.ack":          ClassRecovery,
		"fp4s.block.fetch": ClassRecovery,
		// The daemon's kinds: a heartbeat an unknown-is-ingest default
		// gated would get its sender declared dead.
		"cluster.heartbeat": ClassControl,
		"cluster.join":      ClassControl,
		"cluster.adopt":     ClassControl,
		"cluster.obsdump":   ClassControl,
		"cluster.kv.put":    ClassRecovery,
		"cluster.kv.get":    ClassRecovery,
		"app.msg":           ClassIngest,
		"app.reply":         ClassIngest,
		"mystery.kind":      ClassIngest, // unknown kinds must not bypass the gate
	}
	for kind, want := range cases {
		if got := ClassifyKind(kind); got != want {
			t.Errorf("ClassifyKind(%q) = %v, want %v", kind, got, want)
		}
	}
}

func okHandler(id.ID, simnet.Message) (simnet.Message, error) {
	return simnet.Message{Kind: "ok"}, nil
}

// TestDegradedServiceGate: while the gate is held, inbound ingest-class
// requests bounce with ErrOverloaded; control and recovery traffic pass;
// dropping the gate restores service.
func TestDegradedServiceGate(t *testing.T) {
	n := New()
	defer n.Close()
	reg := metrics.NewRegistry()
	n.SetMetrics(reg)

	a, b := id.HashKey("dg-a"), id.HashKey("dg-b")
	if err := n.Register(a, okHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(b, okHandler); err != nil {
		t.Fatal(err)
	}

	n.SetDegradedService(true)
	if !n.DegradedService() {
		t.Fatal("gate not reported held")
	}
	if _, err := n.Call(a, b, simnet.Message{Kind: "app.msg"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("ingest during degraded mode: want ErrOverloaded, got %v", err)
	}
	if _, err := n.Call(a, b, simnet.Message{Kind: "sr3.shard.fetch"}); err != nil {
		t.Fatalf("recovery traffic rejected in degraded mode: %v", err)
	}
	if _, err := n.Call(a, b, simnet.Message{Kind: "sr3.hb.probe"}); err != nil {
		t.Fatalf("control traffic rejected in degraded mode: %v", err)
	}
	if got := reg.Counter("sr3_net_overload_rejected_total").Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	n.SetDegradedService(false)
	if _, err := n.Call(a, b, simnet.Message{Kind: "app.msg"}); err != nil {
		t.Fatalf("ingest after gate dropped: %v", err)
	}
}

// TestBreakerOpensAndFastFails: consecutive dial failures open the
// destination's breaker; further calls fail fast without dialing; after
// the cooldown a half-open probe closes it against a healed listener.
// Breaker transitions land in the flight recorder.
func TestBreakerOpensAndFastFails(t *testing.T) {
	n := New()
	defer n.Close()
	reg := metrics.NewRegistry()
	n.SetMetrics(reg)
	fr := obs.NewFlightRecorder(32)
	n.SetFlight(fr)
	n.SetDialRetryPolicy(DialRetryPolicy{Attempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})
	n.SetBreakerPolicy(overload.BreakerPolicy{Failures: 2, Cooldown: 50 * time.Millisecond})

	a, b := id.HashKey("br-a"), id.HashKey("br-b")
	if err := n.Register(a, okHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(b, okHandler); err != nil {
		t.Fatal(err)
	}

	// Kill b's listener behind the transport's back: dials fail but the
	// local down-check still passes, so calls reach the breaker.
	n.mu.Lock()
	lnAddr := n.addrs[b]
	_ = n.servers[b].ln.Close()
	n.mu.Unlock()

	for i := 0; i < 2; i++ {
		if _, err := n.Call(a, b, simnet.Message{Kind: "ping"}); !errors.Is(err, ErrNodeDown) {
			t.Fatalf("call %d: want ErrNodeDown, got %v", i, err)
		}
	}
	if st := n.BreakerState(b); st != overload.BreakerOpen {
		t.Fatalf("breaker state after 2 failures = %v, want open", st)
	}
	dialsBefore := reg.Counter("sr3_net_dials_total").Value()
	if _, err := n.Call(a, b, simnet.Message{Kind: "ping"}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen fast-fail, got %v", err)
	}
	if got := reg.Counter("sr3_net_dials_total").Value(); got != dialsBefore {
		t.Fatal("open breaker still dialed the peer")
	}
	if got := reg.Counter("sr3_net_breaker_fastfails_total").Value(); got != 1 {
		t.Fatalf("fast-fail counter = %d, want 1", got)
	}
	if got := reg.Counter("sr3_net_breaker_opens_total").Value(); got != 1 {
		t.Fatalf("breaker opens counter = %d, want 1", got)
	}

	// Heal the listener on the same address, wait out the cooldown: the
	// half-open probe succeeds and the breaker closes.
	ln, err := net.Listen("tcp", lnAddr)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh server value so the defunct accept loop (still winding down
	// on the closed listener) never shares state with the healed one.
	srv := &server{ln: ln, handler: okHandler}
	n.mu.Lock()
	n.servers[b] = srv
	n.mu.Unlock()
	srv.wg.Add(1)
	go n.serve(srv)

	time.Sleep(60 * time.Millisecond)
	if _, err := n.Call(a, b, simnet.Message{Kind: "ping"}); err != nil {
		t.Fatalf("half-open probe failed against healed peer: %v", err)
	}
	if st := n.BreakerState(b); st != overload.BreakerClosed {
		t.Fatalf("breaker state after probe = %v, want closed", st)
	}

	var opens, closes int
	for _, ev := range fr.Events() {
		switch ev.Kind {
		case obs.FlightBreakerOpen:
			opens++
		case obs.FlightBreakerClose:
			closes++
		}
	}
	if opens != 1 || closes != 1 {
		t.Fatalf("flight breaker events = %d opens / %d closes, want 1/1", opens, closes)
	}
}

// TestRetryBudgetCapsDialRetries: with the budget drained, the dial loop
// stops after the first attempt instead of running the full schedule —
// the retry-storm cap.
func TestRetryBudgetCapsDialRetries(t *testing.T) {
	n := New()
	defer n.Close()
	reg := metrics.NewRegistry()
	n.SetMetrics(reg)
	n.SetDialRetryPolicy(DialRetryPolicy{Attempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	// MinPerSec tiny: the budget cannot refill during the test.
	budget := overload.NewBudget(overload.BudgetPolicy{Ratio: 0.1, MinPerSec: 0.0001, Burst: 2})
	n.SetRetryBudget(budget)

	a, b := id.HashKey("rb-a"), id.HashKey("rb-b")
	if err := n.Register(a, okHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(b, okHandler); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	_ = n.servers[b].ln.Close()
	n.mu.Unlock()

	// First failing call: burst of 2 funds 2 retries, then suppression
	// cuts the schedule short (3 dials, not 4).
	if _, err := n.Call(a, b, simnet.Message{Kind: "ping"}); !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("want ErrRetryBudgetExhausted, got %v", err)
	}
	if got := reg.Counter("sr3_net_dials_total").Value(); got != 3 {
		t.Fatalf("dials = %d, want 3 (1 first + 2 budgeted retries)", got)
	}
	// Second failing call: budget empty, zero retries.
	if _, err := n.Call(a, b, simnet.Message{Kind: "ping"}); !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("want ErrRetryBudgetExhausted, got %v", err)
	}
	if got := reg.Counter("sr3_net_dials_total").Value(); got != 4 {
		t.Fatalf("dials = %d, want 4 (second call: first attempt only)", got)
	}
	if got := reg.Counter("sr3_net_retry_suppressed_total").Value(); got != 2 {
		t.Fatalf("suppressed counter = %d, want 2", got)
	}
	stats := n.RetryBudgetStats()
	if stats.Spent != 2 || stats.Suppressed != 2 {
		t.Fatalf("budget stats = %+v, want spent 2 / suppressed 2", stats)
	}

	// Successful exchanges earn the budget back.
	for i := 0; i < 20; i++ {
		if _, err := n.Call(a, a, simnet.Message{Kind: "ping"}); err != nil {
			t.Fatal(err)
		}
	}
	if s := n.RetryBudgetStats(); s.Tokens < 1 {
		t.Fatalf("tokens = %.2f after 20 successes at ratio 0.1, want >= 1", s.Tokens)
	}
}
