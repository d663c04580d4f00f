// Gray-failure tier: the φ detector's verdict ladder between "alive"
// and "dead". A node whose probes still answer — just slowly — is
// *degraded*, not crashed; silence-based accrual alone cannot tell the
// two apart at degradation onset (the first slow reply looks exactly
// like the first missed heartbeat). The detector therefore tracks probe
// round-trip times per peer and (a) classifies sustained RTT inflation
// as StateDegraded, a verdict tier the supervisor answers with reroute
// and deadline tightening instead of kill→recover, and (b) refuses to
// declare a peer dead before a minimum silence floor scaled by the
// peer's observed RTT — recent slow replies are evidence of life, so a
// slow node must be silent for several of its own round-trips before the
// quorum verdict is allowed through (StreamShield-style slow/dead
// separation).
package detector

import (
	"time"

	"sr3/internal/id"
)

// State is a peer's verdict tier, ordered by severity.
type State int

// Verdict tiers. Precedence when several flags hold: Dead > Degraded >
// Suspected > Alive.
const (
	// StateAlive: heartbeats arrive on schedule at normal RTT.
	StateAlive State = iota
	// StateSuspected: φ crossed the threshold — silence, but no quorum
	// verdict yet. Cleared by the next arrival.
	StateSuspected
	// StateDegraded: probes answer, but the RTT has stayed above
	// Config.DegradedRTT for degradedAfter consecutive replies.
	// The peer is slow-but-alive; escalation policy decides what to do.
	StateDegraded
	// StateDead: quorum-confirmed (or obituary-delivered) death verdict.
	StateDead
)

// String names the tier for flight-recorder notes.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspected:
		return "suspected"
	case StateDegraded:
		return "degraded"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// Transition records one peer verdict-tier change, with enough context
// (cause, φ, RTT) for a post-mortem to explain why the tier moved.
type Transition struct {
	Peer id.ID
	From State
	To   State
	At   time.Time
	// Cause is a human-readable one-liner ("rtt 25ms above degraded
	// threshold 10ms for 2 probes", "phi quorum 2 after 41ms silence").
	Cause string
	// Phi is the suspicion level at the transition (0 when irrelevant).
	Phi float64
	// RTT is the probe round trip that caused the transition (0 when the
	// transition came from silence, not an arrival).
	RTT time.Duration
}

// OnTransition registers a callback fired on every peer verdict-tier
// change (the supervisor's degraded-routing subscription point).
// Callbacks run outside the detector lock and must not block for long.
func (d *Detector) OnTransition(f func(Transition)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onTransition = append(d.onTransition, f)
}

// StateOf returns the peer's current verdict tier.
func (d *Detector) StateOf(peer id.ID) State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stateLocked(peer, d.peers[peer])
}

// Degraded reports whether the peer is currently classified
// slow-but-alive.
func (d *Detector) Degraded(peer id.ID) bool {
	return d.StateOf(peer) == StateDegraded
}

// stateLocked resolves the verdict tier under the lock; ps may be nil.
func (d *Detector) stateLocked(peer id.ID, ps *peerState) State {
	if d.dead[peer] {
		return StateDead
	}
	if ps == nil {
		return StateAlive
	}
	if ps.degraded {
		return StateDegraded
	}
	if ps.suspect {
		return StateSuspected
	}
	return StateAlive
}

// classifyRTTLocked folds one probe round trip into the slow/fast
// hysteresis: degradedAfter consecutive replies above DegradedRTT enter
// the degraded tier, degradedAfter consecutive replies at or below half
// the threshold leave it; the band in between holds the current tier.
func (d *Detector) classifyRTTLocked(ps *peerState, rtt time.Duration) {
	thr := d.cfg.DegradedRTT
	switch {
	case rtt > thr:
		ps.slowStreak++
		ps.fastStreak = 0
		if !ps.degraded && ps.slowStreak >= degradedAfter {
			ps.degraded = true
			d.stats.Degradations++
		}
	case rtt <= thr/2:
		ps.fastStreak++
		ps.slowStreak = 0
		if ps.degraded && ps.fastStreak >= degradedAfter {
			ps.degraded = false
		}
	default:
		ps.slowStreak = 0
	}
}

// deadFloorLocked is the minimum silence before this detector lets a
// quorum death verdict through for the peer: the configured floor, or —
// for a peer with measured RTTs — several of its own round trips,
// whichever is longer. A slow peer earns a longer grace window exactly
// because its slowness proves it was recently alive.
func (d *Detector) deadFloorLocked(ps *peerState) time.Duration {
	floor := d.cfg.MinDeadSilence
	if ps.rttWin != nil && ps.rttWin.n > 0 {
		mean, _ := ps.rttWin.meanStd(0, 0)
		if rttFloor := time.Duration(4 * mean); rttFloor > floor {
			floor = rttFloor
		}
	}
	return floor
}

// fire invokes transition callbacks outside the lock.
func (d *Detector) fire(trans []Transition) {
	if len(trans) == 0 {
		return
	}
	d.mu.Lock()
	hooks := make([]func(Transition), len(d.onTransition))
	copy(hooks, d.onTransition)
	d.mu.Unlock()
	for _, tr := range trans {
		for _, h := range hooks {
			h(tr)
		}
	}
}
