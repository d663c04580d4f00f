package recovery

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"sr3/internal/simnet"
)

// TestStreamingPathConcurrentStress hammers the pipelined data plane from
// every direction at once — recoveries of a dead owner's state by all
// three mechanisms, repeated repair passes re-pushing batched replicas,
// and fresh saves of other apps from live owners — under chaos-injected
// transient provider crashes, with the race detector as the referee.
// Every recovery must still hand back state byte-identical to the
// pre-failure snapshot, and every concurrent save must remain
// recoverable afterwards.
func TestStreamingPathConcurrentStress(t *testing.T) {
	c := buildCluster(t, 48, 1234)
	ids := c.Ring.IDs()

	// The app under recovery: saved, then its owner dies.
	owner := ids[3]
	snap := randomSnapshot(120_000, 1234)
	saveState(t, c, owner, "stress-app", snap, 8, 3)
	c.Ring.Fail(owner)
	c.Ring.MaintenanceRound()

	// Transient chaos on the recovery traffic: two non-replacement nodes
	// flap when recovery messages reach them, so the failover ladder and
	// the repair planner both see churn mid-flight.
	replacement, ok := c.Ring.ClosestLive(owner)
	if !ok {
		t.Fatal("no replacement")
	}
	ch := simnet.NewChaos(99)
	armed := 0
	for _, nid := range ids {
		if nid == owner || nid == replacement || !c.Ring.Net.Alive(nid) {
			continue
		}
		ch.Crash(simnet.CrashSchedule{
			Node: nid, KindPrefix: "sr3.shard.fetch", AfterMessages: 2,
			Downtime: 30 * time.Millisecond,
		})
		armed++
		if armed == 2 {
			break
		}
	}
	// Lossy links on top: dropped, duplicated and delayed SR3 messages
	// mid-stream must never corrupt merged state — only slow it down.
	ch.SetLinkFaults(simnet.LinkFaults{
		DropProb:   0.03,
		DupProb:    0.03,
		DelayProb:  0.10,
		Delay:      1 * time.Millisecond,
		KindPrefix: "sr3.",
	})
	c.Ring.Net.SetChaos(ch)

	opts := DefaultOptions()
	opts.FailoverRetries = 6
	opts.RetryBackoff = 20 * time.Millisecond

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Recoveries: every mechanism, twice, concurrently.
	for _, mech := range []Mechanism{Star, Line, Tree} {
		for round := 0; round < 2; round++ {
			wg.Add(1)
			go func(mech Mechanism, round int) {
				defer wg.Done()
				res, err := joined(c.Recover("stress-app", mech, opts))
				if err != nil {
					errs <- fmt.Errorf("%s round %d: %v", mech, round, err)
					return
				}
				if !bytes.Equal(res.Snapshot, snap) {
					errs <- fmt.Errorf("%s round %d: recovered state differs from pre-failure snapshot", mech, round)
				}
			}(mech, round)
		}
	}

	// Repair passes: re-push lost replicas (batched stores) while the
	// recoveries fetch from the same holders.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := c.RepairApp("stress-app"); err != nil {
				errs <- fmt.Errorf("repair pass %d: %v", i, err)
				return
			}
		}
	}()

	// Saves: live owners push fresh states through the same batched
	// store path the repair uses.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			saver := ids[10+i]
			if !c.Ring.Net.Alive(saver) {
				return
			}
			app := fmt.Sprintf("side-app-%d", i)
			blob := randomSnapshot(40_000, int64(2000+i))
			m := c.Manager(saver)
			for round := 0; round < 3; round++ {
				// Dropped messages legitimately abort a save (the churn
				// guard); a real owner retries, so retry here and only
				// report an error when the save never lands.
				var err error
				for attempt := 0; attempt < 10; attempt++ {
					if _, err = m.Save(app, blob, 6, 2, m.NextVersion(int64(round*10+attempt+1))); err == nil {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if err != nil {
					errs <- fmt.Errorf("save %s round %d: %v", app, round, err)
					return
				}
			}
		}(i)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The side apps saved mid-storm must be recoverable too (their owners
	// stayed alive, so recovery runs in place).
	c.Ring.Net.SetChaos(nil)
	for i := 0; i < 3; i++ {
		saver := ids[10+i]
		if !c.Ring.Net.Alive(saver) {
			continue
		}
		app := fmt.Sprintf("side-app-%d", i)
		want := randomSnapshot(40_000, int64(2000+i))
		res, err := joined(c.Recover(app, Star, DefaultOptions()))
		if err != nil {
			t.Fatalf("post-storm recover %s: %v", app, err)
		}
		if !bytes.Equal(res.Snapshot, want) {
			t.Fatalf("post-storm %s: state differs", app)
		}
	}
}
