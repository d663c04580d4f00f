package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"sr3/internal/id"
	"sr3/internal/metrics"
	"sr3/internal/recovery"
	"sr3/internal/simnet"
)

// ChaosReport runs the real recovery executors (not the timed planners)
// under seeded fault injection and reports what the failover ladder did:
// a provider is crash-scheduled to die on the first recovery message it
// receives, every recovery link drops a fraction of its messages, and
// each mechanism must still reassemble the state byte-identically. The
// per-recovery Outcome reports are aggregated into metrics.FailoverStats.
func ChaosReport() (string, error) {
	var b strings.Builder
	var agg metrics.FailoverStats
	fmt.Fprintf(&b, "seeded chaos: one provider crash-scheduled mid-recovery, 5%% drops on recovery links\n")
	fmt.Fprintf(&b, "%-6s %9s %9s %10s %13s %9s\n",
		"mech", "attempts", "failovers", "retriedKB", "deadProviders", "degraded")
	for _, mech := range []recovery.Mechanism{recovery.Star, recovery.Line, recovery.Tree} {
		out, stats, err := chaosRecoverOnce(mech)
		if err != nil {
			return "", fmt.Errorf("chaos %s: %w", mech, err)
		}
		agg.Add(out.Attempts, out.Failovers, out.RetriedBytes, out.DeadProviders, out.Degraded)
		degraded := "-"
		if out.Degraded {
			degraded = "to " + out.DegradedTo.String()
		}
		fmt.Fprintf(&b, "%-6s %9d %9d %10.1f %13d %9s   (injected: %d dropped, %d crashes)\n",
			mech, out.Attempts, out.Failovers, float64(out.RetriedBytes)/1024,
			out.DeadProviders, degraded, stats.Dropped, stats.Crashes)
	}
	fmt.Fprintf(&b, "aggregate: %d recoveries, %.1f failovers/recovery, %.0f%% degraded, %.1f KB retried\n",
		agg.Recoveries, agg.FailoverRate(), 100*agg.DegradedFraction(),
		float64(agg.RetriedBytes)/1024)
	return b.String(), nil
}

// chaosRecoverOnce builds a fresh rig on a 48-node ring, saves one
// state, kills the owner, arms the fault plan and recovers with the given
// mechanism, verifying the reassembled bytes.
func chaosRecoverOnce(mech recovery.Mechanism) (recovery.Outcome, simnet.ChaosStats, error) {
	r, err := newRig(rigOpts{seed: 7, mechanism: MechSR3Star, nodes: 48})
	if err != nil {
		return recovery.Outcome{}, simnet.ChaosStats{}, err
	}
	defer r.Close()
	ring, cluster, ch := r.ring, r.cluster, r.chaos
	owner := ring.IDs()[0]
	snap := make([]byte, 256<<10)
	rand.New(rand.NewSource(11)).Read(snap)
	mgr := cluster.Manager(owner)
	placement, err := mgr.Save("chaos-app", snap, 12, 2, mgr.NextVersion(1))
	if err != nil {
		return recovery.Outcome{}, simnet.ChaosStats{}, err
	}

	ring.Fail(owner)
	replacement, ok := ring.ClosestLive(owner)
	if !ok {
		return recovery.Outcome{}, simnet.ChaosStats{}, fmt.Errorf("no live replacement")
	}
	var victim id.ID
	for _, h := range placement.Holders() {
		if h != replacement && h != owner {
			victim = h
			break
		}
	}

	// The fault plan targets recovery traffic only ("sr3." kinds), so the
	// overlay's own maintenance is untouched: the victim dies the moment
	// the first collection message reaches it.
	ch.SetLinkFaults(simnet.LinkFaults{DropProb: 0.05, KindPrefix: "sr3."})
	ch.Crash(simnet.CrashSchedule{Node: victim, KindPrefix: "sr3.", AfterMessages: 1})

	opts := recovery.DefaultOptions()
	opts.FailoverRetries = 6
	res, v, err := cluster.Recover("chaos-app", mech, opts)
	if err != nil {
		return recovery.Outcome{}, ch.Stats(), err
	}
	same := bytes.Equal(v.Join(), snap)
	v.Release()
	if !same {
		return recovery.Outcome{}, ch.Stats(), fmt.Errorf("recovered state differs under chaos")
	}
	return res.Outcome, ch.Stats(), nil
}
