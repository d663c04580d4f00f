// Gray-failure escalation: the supervisor's reaction to the detector's
// Suspected/Degraded verdict tier. A degraded peer is slow, not dead —
// kill→recover would pay a full MTTR for a node that still answers — so
// the supervisor instead (a) marks the peer degraded in the recovery
// cluster, which reroutes collection around it (replica demotion,
// subtree → direct fetch), and (b) arms an escalation timer: a peer that
// stays degraded past KillAfter earns a synthetic death verdict after
// all. Every transition
// lands in the flight recorder with the detector's cause note, so a
// post-mortem can explain why a node was demoted rather than killed.
package supervise

import (
	"fmt"
	"time"

	"sr3/internal/detector"
	"sr3/internal/id"
	"sr3/internal/obs"
)

// EscalationPolicy tunes the supervisor's degraded-peer handling. The
// zero value reroutes recovery traffic but never escalates to a kill.
type EscalationPolicy struct {
	// KillAfter escalates a peer continuously degraded for this long to
	// a synthetic death verdict (0 = never escalate).
	KillAfter time.Duration
}

// grayState tracks one peer's degradation: which detectors currently
// report it degraded, and the armed escalation timer.
type grayState struct {
	reporters map[id.ID]bool
	timer     *time.Timer
	escalated bool
}

// Degraded reports whether any detector currently classifies the peer
// as slow-but-alive.
func (s *Supervisor) Degraded(peer id.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gray[peer]
	return g != nil && len(g.reporters) > 0
}

// handleTransition folds one detector verdict-tier transition into the
// escalation state machine. observer is the node whose detector fired.
func (s *Supervisor) handleTransition(observer id.ID, tr detector.Transition) {
	switch tr.To {
	case detector.StateSuspected:
		s.cfg.Flight.Note(obs.FlightSuspected, tr.Peer.Short(), "",
			fmt.Sprintf("by=%s %s", observer.Short(), tr.Cause), nil)
	case detector.StateDegraded:
		s.peerDegraded(observer, tr)
	case detector.StateAlive:
		if tr.From == detector.StateDegraded {
			s.peerRecovered(observer, tr)
		}
	case detector.StateDead:
		s.peerDead(observer, tr)
	}
}

// peerDegraded records one detector's degraded verdict. The first
// reporter triggers the reroute mark and arms the timer; further reporters
// just join the set (the peer stays degraded until all recant).
func (s *Supervisor) peerDegraded(observer id.ID, tr detector.Transition) {
	s.mu.Lock()
	g := s.gray[tr.Peer]
	if g == nil {
		g = &grayState{reporters: make(map[id.ID]bool)}
		s.gray[tr.Peer] = g
	}
	first := len(g.reporters) == 0
	g.reporters[observer] = true
	if first && s.cfg.Escalation.KillAfter > 0 && g.timer == nil {
		peer := tr.Peer
		g.timer = time.AfterFunc(s.cfg.Escalation.KillAfter, func() { s.escalate(peer) })
	}
	s.mu.Unlock()
	if !first {
		return
	}
	s.cfg.Flight.Note(obs.FlightDegraded, tr.Peer.Short(), "",
		fmt.Sprintf("by=%s rtt=%v %s", observer.Short(), tr.RTT, tr.Cause), nil)
	s.cluster.MarkDegraded(tr.Peer)
}

// peerRecovered removes one detector's degraded verdict; when the last
// reporter recants, the peer is restored: reroute mark cleared and
// escalation timer disarmed.
func (s *Supervisor) peerRecovered(observer id.ID, tr detector.Transition) {
	s.mu.Lock()
	g := s.gray[tr.Peer]
	if g == nil || !g.reporters[observer] {
		s.mu.Unlock()
		return
	}
	delete(g.reporters, observer)
	cleared := len(g.reporters) == 0 && !g.escalated
	if cleared && g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	s.mu.Unlock()
	if !cleared {
		return
	}
	s.cfg.Flight.Note(obs.FlightDegradeClear, tr.Peer.Short(), "",
		fmt.Sprintf("by=%s %s", observer.Short(), tr.Cause), nil)
	s.cluster.ClearDegraded(tr.Peer)
}

// dropObserver removes a dead node's detector from every gray reporter
// set: a fenced observer can never recant, and leaving its report in
// place would pin peers degraded forever. Peers whose last reporter was
// the dead observer are restored.
func (s *Supervisor) dropObserver(observer id.ID) {
	var restored []id.ID
	s.mu.Lock()
	for peer, g := range s.gray {
		if !g.reporters[observer] {
			continue
		}
		delete(g.reporters, observer)
		if len(g.reporters) == 0 && !g.escalated {
			if g.timer != nil {
				g.timer.Stop()
				g.timer = nil
			}
			restored = append(restored, peer)
		}
	}
	s.mu.Unlock()
	for _, peer := range restored {
		s.cfg.Flight.Note(obs.FlightDegradeClear, peer.Short(), "",
			fmt.Sprintf("last reporter %s died", observer.Short()), nil)
		s.cluster.ClearDegraded(peer)
	}
}

// peerDead tears down the gray state when a detector declares the peer
// dead: the kill path owns the peer now. A mark it clears is journaled
// like any other, so a peer that a detector briefly took for dead does
// not leave a gray.degraded without its gray.clear.
func (s *Supervisor) peerDead(observer id.ID, tr detector.Transition) {
	peer := tr.Peer
	s.mu.Lock()
	g := s.gray[peer]
	if g == nil {
		s.mu.Unlock()
		return
	}
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	cleared := len(g.reporters) > 0 && !g.escalated
	g.reporters = make(map[id.ID]bool)
	s.mu.Unlock()
	if cleared {
		s.cfg.Flight.Note(obs.FlightDegradeClear, peer.Short(), "",
			fmt.Sprintf("death verdict by=%s %s", observer.Short(), tr.Cause), nil)
	}
	s.cluster.ClearDegraded(peer)
}

// escalate fires when a peer stayed degraded past KillAfter: the
// supervisor stops waiting for it to recover, fences the peer (its
// transport endpoint is killed, so it cannot serve half-dead replies
// into the recovery), and injects a death verdict, driving the full
// kill→recover pipeline.
func (s *Supervisor) escalate(peer id.ID) {
	s.mu.Lock()
	g := s.gray[peer]
	if g == nil || len(g.reporters) == 0 || g.escalated {
		s.mu.Unlock()
		return
	}
	g.escalated = true
	g.timer = nil
	s.mu.Unlock()
	s.cfg.Flight.Note(obs.FlightEscalated, peer.Short(), "",
		fmt.Sprintf("degraded past %v without recovering; killing", s.cfg.Escalation.KillAfter), nil)
	s.cluster.ClearDegraded(peer)
	s.cluster.Ring.Fail(peer)
	s.InjectVerdict(peer)
}
