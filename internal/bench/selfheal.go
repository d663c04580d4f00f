package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sr3/internal/detector"
	"sr3/internal/metrics"
	"sr3/internal/shard"
	"sr3/internal/supervise"
)

// selfHealSetting is one cell of the self-heal sweep.
type selfHealSetting struct {
	heartbeat time.Duration
	threshold float64
}

// SelfHealReport measures the closed detection→supervise→repair loop:
// for each (heartbeat interval, φ threshold) setting a fresh supervised
// cluster is built, state owners are killed one at a time, and the
// supervisor must notice and heal each death with no manual trigger. The
// report aggregates detection latency (kill → verdict at the supervisor)
// and MTTR (kill → replication restored to r) per setting, exposing the
// paper-style trade-off: shorter heartbeats and lower thresholds detect
// faster but ride closer to false-positive territory.
func SelfHealReport() (string, error) {
	settings := []selfHealSetting{
		{5 * time.Millisecond, 8},
		{10 * time.Millisecond, 8},
		{20 * time.Millisecond, 8},
		{10 * time.Millisecond, 4},
		{10 * time.Millisecond, 12},
	}
	const kills = 3

	var b strings.Builder
	fmt.Fprintf(&b, "self-heal: %d owner kills per setting on a 24-node supervised ring (φ-accrual detection, auto recovery, replica repair)\n", kills)
	fmt.Fprintf(&b, "%-10s %5s %8s %14s %14s %14s %14s %9s\n",
		"heartbeat", "phi", "healed", "detect-mean", "detect-p99", "mttr-mean", "mttr-p99", "failures")
	for _, set := range settings {
		stats, err := selfHealCell(set, kills)
		if err != nil {
			return "", fmt.Errorf("self-heal %v/phi=%g: %w", set.heartbeat, set.threshold, err)
		}
		dMean, _, dP99, _ := stats.DetectionSummary()
		mMean, _, mP99, _ := stats.MTTRSummary()
		fmt.Fprintf(&b, "%-10s %5g %8d %12.1fms %12.1fms %12.1fms %12.1fms %9d\n",
			set.heartbeat, set.threshold, stats.Samples(), dMean, dP99, mMean, mP99, stats.Failures)
	}
	fmt.Fprintf(&b, "(detect = kill→verdict at supervisor; mttr = kill→state recovered and re-replicated at r)\n")
	return b.String(), nil
}

// selfHealCell builds one supervised rig and runs the kill loop.
func selfHealCell(set selfHealSetting, kills int) (metrics.SelfHealStats, error) {
	var stats metrics.SelfHealStats
	r, err := newRig(rigOpts{seed: 31, mechanism: MechSR3Star})
	if err != nil {
		return stats, err
	}
	defer r.Close()
	ring, cluster := r.ring, r.cluster
	sup := r.supervise(supervise.Config{
		Detector: detector.Config{
			Interval:  set.heartbeat,
			Threshold: set.threshold,
		},
		RepairInterval: 50 * time.Millisecond,
	})

	// One protected state per planned kill, so every kill hits a live
	// owner of its own app and earlier recoveries keep their replacements.
	rng := rand.New(rand.NewSource(97))
	apps := make([]string, kills)
	for i := range apps {
		apps[i] = fmt.Sprintf("heal-%d", i)
		snap := make([]byte, 64<<10)
		rng.Read(snap)
		mgr := cluster.Manager(ring.IDs()[0])
		if _, err := mgr.Save(apps[i], snap, 8, 2, mgr.NextVersion(int64(i+1))); err != nil {
			return stats, err
		}
		sup.Protect(supervise.StateSpec{App: apps[i], StateBytes: int64(len(snap))})
	}
	if err := sup.Start(); err != nil {
		return stats, err
	}

	for _, app := range apps {
		// Look up through a live node — an earlier kill may have taken out
		// the node used for the previous lookup.
		live := ring.LiveIDs()
		if len(live) == 0 {
			return stats, fmt.Errorf("no live node left for lookup")
		}
		src := cluster.Manager(live[0])
		// All apps are saved through the same node, so an earlier kill can
		// have taken this app's owner too; wait for the supervisor to
		// migrate ownership to a live node so every kill is a real one.
		var p shard.Placement
		if waitUntil(20*time.Second, func() bool {
			var err error
			p, err = src.LookupPlacement(app)
			return err == nil && ring.Net.Alive(p.Owner)
		}) != nil {
			stats.AddFailure()
			continue
		}
		killedAt := time.Now()
		ring.Fail(p.Owner)

		if waitUntil(20*time.Second, func() bool {
			for _, ev := range sup.Events() {
				if ev.App == app && ev.Node == p.Owner && ev.Err == nil && !ev.ReprotectedAt.IsZero() {
					stats.AddSample(ms(ev.DetectedAt.Sub(killedAt)), ms(ev.ReprotectedAt.Sub(killedAt)))
					return true
				}
			}
			return false
		}) != nil {
			stats.AddFailure()
		}
	}
	return stats, nil
}
