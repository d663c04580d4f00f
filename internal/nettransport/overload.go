package nettransport

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/overload"
)

// Overload-control errors.
var (
	// ErrOverloaded reports an ingest-class request rejected by a peer in
	// degraded-service mode: the node is alive but is reserving its
	// capacity for recovery and control traffic. Callers should back off,
	// not fail over — the peer is not dead.
	ErrOverloaded = errors.New("nettransport: overloaded")
	// ErrBreakerOpen reports a call rejected locally by the destination's
	// open circuit breaker — no connection was attempted. It arrives
	// wrapped with ErrNodeDown so failover ladders treat it like an
	// unreachable peer without a new match arm.
	ErrBreakerOpen = errors.New("nettransport: circuit breaker open")
	// ErrRetryBudgetExhausted reports a dial retry suppressed by the
	// transport's retry budget: the first attempt failed and the budget
	// refused to fund another. It arrives wrapped with ErrDialExhausted.
	ErrRetryBudgetExhausted = errors.New("nettransport: retry budget exhausted")
)

// TrafficClass buckets message kinds for admission control. The split
// follows what a node must keep serving while overloaded: control
// traffic keeps the overlay alive (reject it and the node looks dead),
// recovery traffic is the reason degraded mode exists, and ingest is the
// load being shed.
type TrafficClass int

const (
	// ClassControl is membership, routing and failure-detection traffic
	// (heartbeats, DHT routing, Scribe trees, the daemon's cluster.*
	// control plane) — always admitted.
	ClassControl TrafficClass = iota
	// ClassRecovery is state movement: shard store/fetch, line/tree
	// collection, erasure-coded block transfer, DHT KV ops — admitted in
	// degraded mode so recovery can finish.
	ClassRecovery
	// ClassIngest is application traffic — rejected with ErrOverloaded
	// while the serving node is in degraded-service mode.
	ClassIngest
)

func (c TrafficClass) String() string {
	switch c {
	case ClassControl:
		return "control"
	case ClassRecovery:
		return "recovery"
	case ClassIngest:
		return "ingest"
	default:
		return "unknown"
	}
}

// ClassifyKind maps a message kind to its traffic class. Unknown kinds
// classify as ingest: an unrecognized message must not be able to bypass
// the degraded-mode gate by its name.
func ClassifyKind(kind string) TrafficClass {
	switch {
	case strings.HasPrefix(kind, "sr3.hb."),
		strings.HasPrefix(kind, "scribe."):
		return ClassControl
	case strings.HasPrefix(kind, "dht.kv."),
		strings.HasPrefix(kind, "cluster.kv."):
		// KV ops carry replicated state for the recovery store — recovery
		// class, not overlay control.
		return ClassRecovery
	case strings.HasPrefix(kind, "dht."),
		strings.HasPrefix(kind, "cluster."):
		// The daemon's membership, adoption and observability messages: a
		// gate that took them for ingest would silence a heartbeat.
		return ClassControl
	case strings.HasPrefix(kind, "sr3."),
		strings.HasPrefix(kind, "fp4s."):
		return ClassRecovery
	default:
		return ClassIngest
	}
}

// overloadState holds the Network's overload-control knobs; split out of
// the main struct so nettransport.go stays focused on the wire protocol.
type overloadState struct {
	degraded atomic.Bool
	// breakers is per-destination; guarded by the Network mutex.
	breakers   map[id.ID]*overload.Breaker
	breakerPol overload.BreakerPolicy
	breakersOn bool
	budget     *overload.Budget
	flight     *obs.FlightRecorder
}

// SetDegradedService flips this transport's inbound admission gate: while
// on, ingest-class requests are rejected with ErrOverloaded before the
// handler runs; control and recovery traffic pass. The supervisor holds
// the gate for the duration of a recovery.
func (n *Network) SetDegradedService(on bool) {
	n.ovl.degraded.Store(on)
}

// DegradedService reports whether the inbound ingest gate is closed.
func (n *Network) DegradedService() bool {
	return n.ovl.degraded.Load()
}

// SetBreakerPolicy enables per-peer circuit breakers on outbound calls
// under the policy (zero value = defaults). Consecutive transport-level
// failures toward one peer open its breaker; open breakers fail calls
// fast with ErrBreakerOpen (wrapped in ErrNodeDown) until a half-open
// probe succeeds. Existing breaker state is discarded.
func (n *Network) SetBreakerPolicy(pol overload.BreakerPolicy) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ovl.breakers = make(map[id.ID]*overload.Breaker)
	n.ovl.breakerPol = pol
	n.ovl.breakersOn = true
}

// SetRetryBudget installs a transport-wide token-bucket retry budget:
// dial retries (attempts after the first) spend tokens, successful
// exchanges earn them back. nil removes the budget (unbudgeted retries).
func (n *Network) SetRetryBudget(b *overload.Budget) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ovl.budget = b
}

// RetryBudgetStats snapshots the retry budget (zeros when unset).
func (n *Network) RetryBudgetStats() overload.BudgetStats {
	return n.retryBudget().Stats()
}

// SetFlight attaches a flight recorder: breaker open/close edges are
// journaled as overload.breaker_open / overload.breaker_close events.
func (n *Network) SetFlight(fr *obs.FlightRecorder) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ovl.flight = fr
}

func (n *Network) retryBudget() *overload.Budget {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ovl.budget
}

func (n *Network) getFlight() *obs.FlightRecorder {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ovl.flight
}

// breakerFor returns the destination's breaker, creating it lazily; nil
// when breakers are disabled (a nil Breaker admits everything).
func (n *Network) breakerFor(to id.ID) *overload.Breaker {
	n.mu.RLock()
	on := n.ovl.breakersOn
	br := n.ovl.breakers[to]
	n.mu.RUnlock()
	if !on || br != nil {
		return br
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if br = n.ovl.breakers[to]; br == nil {
		br = overload.NewBreaker(n.ovl.breakerPol)
		n.ovl.breakers[to] = br
	}
	return br
}

// BreakerState reports the current breaker position toward a peer
// (closed when breakers are disabled or the peer has no history).
func (n *Network) BreakerState(to id.ID) overload.BreakerState {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ovl.breakers[to].State()
}

// BreakerStats snapshots the breaker toward a peer.
func (n *Network) BreakerStats(to id.ID) overload.BreakerStats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ovl.breakers[to].Stats()
}

// noteOutcome settles one exchange's breaker and budget accounting.
// transportFailure marks dial/timeout/encode/decode failures — the
// signals that the peer is unreachable or unresponsive; a remote
// application error is a *successful* exchange for breaker purposes (the
// peer answered).
func (n *Network) noteOutcome(to id.ID, br *overload.Breaker, transportFailure bool) {
	if transportFailure {
		if br.Failure() {
			if ni := n.instr.Load(); ni != nil {
				ni.breakerOpens.Inc()
			}
			n.getFlight().Note(obs.FlightBreakerOpen, to.Short(), "",
				fmt.Sprintf("fails=%d", br.Stats().Opens), nil)
		}
		return
	}
	if br.Success() {
		n.getFlight().Note(obs.FlightBreakerClose, to.Short(), "", "probe ok", nil)
	}
	n.retryBudget().Earn()
}
