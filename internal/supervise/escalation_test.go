package supervise

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"sr3/internal/detector"
	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/simnet"
)

// grayConfig tunes detection so a 25ms injected slowdown is decisively
// degraded (DegradedRTT 10ms) while the adaptive dead floor
// (max(60ms, 4×25ms RTT) = 100ms) keeps slow replies from ever
// becoming a death verdict.
func grayConfig() Config {
	return Config{
		Detector: detector.Config{
			Interval:       10 * time.Millisecond,
			Threshold:      8, // conservative: wall-clock ticking jitters under test load
			Quorum:         2,
			DegradedRTT:    10 * time.Millisecond,
			MinDeadSilence: 60 * time.Millisecond,
		},
		RepairInterval: 50 * time.Millisecond,
	}
}

func flightHas(f *obs.FlightRecorder, kind string, node id.ID) bool {
	for _, ev := range f.Events() {
		if ev.Kind == kind && ev.Node == node.Short() {
			return true
		}
	}
	return false
}

// TestSupervisorDemotesSlowNodeInsteadOfKilling is the gray-failure
// acceptance path: a slow-but-alive node must be marked degraded (flight
// event, cluster reroute mark) and must NOT be killed — no death verdict
// names it; clearing the slowdown restores it fully.
func TestSupervisorDemotesSlowNodeInsteadOfKilling(t *testing.T) {
	c := buildCluster(t, 17, 1301)
	owner := c.Ring.IDs()[0]
	snap := randomSnapshot(32_000, 13)
	mgr := c.Manager(owner)
	if _, err := mgr.Save("app", snap, 8, 2, mgr.NextVersion(1)); err != nil {
		t.Fatalf("save: %v", err)
	}

	flight := obs.NewFlightRecorder(0)
	cfg := grayConfig()
	cfg.Flight = flight
	// Escalation.KillAfter unset: never escalate in this test.
	s := New(c, cfg)
	s.Protect(StateSpec{App: "app", StateBytes: int64(len(snap))})
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Stop()

	victim := c.Ring.IDs()[5]
	ch := simnet.NewChaos(41)
	ch.Degrade(victim, simnet.Degradation{Slowdown: 25 * time.Millisecond})
	c.Ring.Net.SetChaos(ch)

	waitFor(t, 10*time.Second, "victim demoted to degraded", func() bool {
		return s.Degraded(victim) && c.IsDegraded(victim)
	})
	if !flightHas(flight, obs.FlightDegraded, victim) {
		t.Fatal("no gray.degraded flight event for the victim")
	}

	// Hold: the slow node must never be declared dead or recovered away.
	time.Sleep(400 * time.Millisecond)
	if !c.Ring.Net.Alive(victim) {
		t.Fatal("slow-but-alive victim was killed")
	}
	for _, ev := range s.Events() {
		if ev.Node == victim {
			t.Fatalf("spurious recovery event for the slow victim: %+v", ev)
		}
	}
	if flightHas(flight, obs.FlightEscalated, victim) {
		t.Fatal("victim escalated despite KillAfter=0")
	}

	// Recovery under the demotion still works: kill the owner while the
	// victim is degraded.
	c.Ring.Fail(owner)
	waitFor(t, 10*time.Second, "owner recovery with degraded provider", func() bool {
		for _, ev := range s.Events() {
			if ev.App == "app" && ev.Err == nil && !ev.ReprotectedAt.IsZero() {
				return ev.Replacement != victim // never rebuild onto the slow node
			}
		}
		return false
	})
	got, ok := func() ([]byte, bool) {
		for _, ev := range s.Events() {
			if ev.App == "app" && ev.Err == nil {
				return c.Manager(ev.Replacement).Recovered("app")
			}
		}
		return nil, false
	}()
	if !ok || !bytes.Equal(got, snap) {
		t.Fatal("replacement does not hold the recovered snapshot")
	}

	// Clearing the slowdown restores the victim: the mark is gone.
	ch.ClearDegrade(victim)
	waitFor(t, 10*time.Second, "victim restored to healthy", func() bool {
		return !s.Degraded(victim) && !c.IsDegraded(victim)
	})
	if !flightHas(flight, obs.FlightDegradeClear, victim) {
		t.Fatal("no gray.clear flight event for the victim")
	}
	// The spurious kill this test exists to catch: a quorum taking the
	// slow victim for dead.
	if flightHas(flight, obs.FlightVerdict, victim) {
		t.Fatalf("death verdict for the slow victim; flight:\n%s", flightDump(flight))
	}
}

// flightDump renders a flight journal one event per line, for a failure
// message.
func flightDump(f *obs.FlightRecorder) string {
	var b strings.Builder
	for _, ev := range f.Events() {
		fmt.Fprintf(&b, "%d %s node=%s app=%s %s %s\n", ev.At, ev.Kind, ev.Node, ev.App, ev.Detail, ev.Err)
	}
	return b.String()
}

// TestSupervisorEscalatesPersistentlyDegradedNode arms KillAfter: a node
// that stays degraded past the budget is fenced and killed, and the
// states it owned recover at a replacement — with the escalation
// recorded in the flight journal for the post-mortem.
func TestSupervisorEscalatesPersistentlyDegradedNode(t *testing.T) {
	c := buildCluster(t, 17, 1302)
	victim := c.Ring.IDs()[4]
	snap := randomSnapshot(32_000, 14)
	mgr := c.Manager(victim)
	if _, err := mgr.Save("app", snap, 8, 2, mgr.NextVersion(1)); err != nil {
		t.Fatalf("save: %v", err)
	}

	flight := obs.NewFlightRecorder(0)
	cfg := grayConfig()
	cfg.Flight = flight
	cfg.Escalation = EscalationPolicy{KillAfter: 150 * time.Millisecond}
	s := New(c, cfg)
	s.Protect(StateSpec{App: "app", StateBytes: int64(len(snap))})
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Stop()

	ch := simnet.NewChaos(42)
	ch.Degrade(victim, simnet.Degradation{Slowdown: 25 * time.Millisecond})
	c.Ring.Net.SetChaos(ch)

	waitFor(t, 10*time.Second, "escalation to kill", func() bool {
		return flightHas(flight, obs.FlightEscalated, victim)
	})
	waitFor(t, 2*time.Second, "victim fenced", func() bool {
		return !c.Ring.Net.Alive(victim)
	})
	var ev Event
	waitFor(t, 10*time.Second, "recovery of the escalated node's state", func() bool {
		for _, e := range s.Events() {
			if e.App == "app" && e.Err == nil && !e.ReprotectedAt.IsZero() {
				ev = e
				return true
			}
		}
		return false
	})
	if ev.Node != victim {
		t.Fatalf("recovery blames %s, want escalated victim %s", ev.Node.Short(), victim.Short())
	}
	if ev.Replacement == victim || ev.Replacement == id.Zero {
		t.Fatalf("bad replacement %s", ev.Replacement.Short())
	}
	got, ok := c.Manager(ev.Replacement).Recovered("app")
	if !ok || !bytes.Equal(got, snap) {
		t.Fatal("replacement does not hold the recovered snapshot")
	}
	if !flightHas(flight, obs.FlightDegraded, victim) {
		t.Fatal("escalation without a preceding gray.degraded event")
	}
}
