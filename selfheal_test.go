package sr3

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"sr3/internal/recovery"
	"sr3/internal/simnet"
)

// fastSupervision tunes supervised mode for test wall-clock.
func fastSupervision() SupervisionConfig {
	return SupervisionConfig{
		Heartbeat:      15 * time.Millisecond,
		PhiThreshold:   8,
		RepairInterval: 50 * time.Millisecond,
	}
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// healthyReplication reports whether every shard index of app sits at its
// full replica count on live nodes only.
func healthyReplication(f *Framework, app string) bool {
	health, p, err := f.cluster.ReplicaHealth(app)
	if err != nil {
		return false
	}
	for i := 0; i < p.M; i++ {
		if health[i] != p.R {
			return false
		}
	}
	for _, nid := range p.Loc {
		if !f.ring.Net.Alive(nid) {
			return false
		}
	}
	return true
}

// TestSelfHealingUnderChaos is the end-to-end robustness test for the
// detection→supervise→repair pipeline: state owners are killed by the
// fault injector — one crash is even triggered by the detector's own
// heartbeat traffic — while heartbeat links drop messages, and the
// cluster must converge back to full replication with the states intact
// and ZERO manual Recover/Heal/RepairApp calls.
func TestSelfHealingUnderChaos(t *testing.T) {
	f := newFramework(t, 32, 77)

	snaps := map[string][]byte{}
	for i, app := range []string{"chaos-a", "chaos-b"} {
		snap := make([]byte, 40_000+i*8_000)
		rand.New(rand.NewSource(int64(100 + i))).Read(snap)
		snaps[app] = snap
		if err := f.Save(app, snap); err != nil {
			t.Fatalf("save %s: %v", app, err)
		}
	}
	ownerA, err := f.OwnerOf("chaos-a")
	if err != nil {
		t.Fatal(err)
	}
	ownerB, err := f.OwnerOf("chaos-b")
	if err != nil {
		t.Fatal(err)
	}

	// Fault plan: drop 2% of heartbeat traffic everywhere, and crash
	// chaos-a's owner on the 40th heartbeat message it receives — the
	// detector's own probes pull the trigger.
	ch := simnet.NewChaos(4242)
	ch.SetLinkFaults(simnet.LinkFaults{DropProb: 0.02, KindPrefix: "sr3.hb."})
	ch.Crash(simnet.CrashSchedule{Node: ownerA, KindPrefix: "sr3.hb.", AfterMessages: 40})
	f.ring.Net.SetChaos(ch)
	defer f.ring.Net.SetChaos(nil)

	if err := f.StartSupervision(fastSupervision()); err != nil {
		t.Fatal(err)
	}
	defer f.StopSupervision()

	// Phase 1: the scheduled crash fires on its own; wait for the
	// supervisor to detect, recover and re-protect chaos-a.
	deadline := time.Now().Add(20 * time.Second)
	for {
		done := false
		for _, e := range f.SelfHealEvents() {
			if e.App == "chaos-a" && e.Node == ownerA && e.Err == nil && !e.ReprotectedAt.IsZero() {
				done = true
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Logf("chaos stats: %+v, ownerA=%s alive=%v", ch.Stats(), ownerA.Short(), f.ring.Net.Alive(ownerA))
			for _, e := range f.SelfHealEvents() {
				t.Logf("event: app=%s node=%s repl=%s err=%v reprotected=%v",
					e.App, e.Node.Short(), e.Replacement.Short(), e.Err, !e.ReprotectedAt.IsZero())
			}
			t.Fatal("timed out waiting for chaos-a self-heal")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: kill chaos-b's owner directly (second failure wave, while
	// the injected link drops stay active). If it already died as
	// collateral of the scheduled crash the supervisor must have healed
	// it anyway; the end-state assertions below cover both paths.
	if f.ring.Net.Alive(ownerB) {
		f.FailNode(ownerB)
	}
	waitUntil(t, 20*time.Second, "chaos-b self-heal", func() bool {
		for _, e := range f.SelfHealEvents() {
			if e.App == "chaos-b" && e.Err == nil && !e.ReprotectedAt.IsZero() {
				return true
			}
		}
		return false
	})

	// Convergence: both states fully replicated on live nodes, owned by
	// live replacements, byte-identical at the recovery site.
	for app, snap := range snaps {
		waitUntil(t, 20*time.Second, app+" re-replication", func() bool {
			return healthyReplication(f, app)
		})
		owner, err := f.OwnerOf(app)
		if err != nil {
			t.Fatalf("%s owner: %v", app, err)
		}
		if !f.ring.Net.Alive(owner) {
			t.Fatalf("%s owned by dead node %s", app, owner.Short())
		}
		var ev SelfHealEvent
		for _, e := range f.SelfHealEvents() {
			if e.App == app && e.Err == nil && !e.ReprotectedAt.IsZero() {
				ev = e
			}
		}
		res, err := f.cluster.Manager(owner).RecoverDirect(app, Star, recovery.DefaultOptions())
		if err != nil || !bytes.Equal(res.Snapshot, snap) {
			t.Fatalf("%s re-protected at %s is not byte-identical (err %v)", app, owner.Short(), err)
		}
		if !ev.DetectedAt.Before(ev.ReprotectedAt) {
			t.Fatalf("%s event timestamps out of order: %+v", app, ev)
		}
	}

	// The chaos plan must actually have fired.
	if st := ch.Stats(); st.Crashes == 0 {
		t.Fatal("scheduled crash never fired — the test exercised nothing")
	}
}

// TestSupervisedStreamRuntimeSelfHeals drives the full task path: a live
// word-count topology checkpoints through the SR3 backend, the DHT node
// owning the task's state dies, and the supervisor must kill the task,
// restore its state (with input-log replay) and re-protect the shards —
// no manual KillTask/RecoverTask anywhere.
func TestSupervisedStreamRuntimeSelfHeals(t *testing.T) {
	f := newFramework(t, 32, 78)
	backend := f.Backend(0, 6, 2)

	topo := NewTopology("heal")
	in := make(chan Tuple, 256)
	if err := topo.AddSpout("src", SpoutFunc(func() (Tuple, bool) {
		tp, ok := <-in
		return tp, ok
	})); err != nil {
		t.Fatal(err)
	}
	store := NewMapStore()
	if err := topo.AddBolt("count", &publicCounter{store: store}, 1).Fields("src", 0).Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, RuntimeConfig{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	push := func(n int) {
		for i := 0; i < n; i++ {
			in <- Tuple{Values: []any{fmt.Sprintf("w%d", i%4)}, Ts: int64(i)}
		}
	}
	count := func(w string) int {
		v, ok := store.Get(w)
		if !ok {
			return 0
		}
		n, _ := strconv.Atoi(string(v))
		return n
	}

	push(40)
	waitUntil(t, 10*time.Second, "first batch processed", func() bool { return count("w0") == 10 })
	if err := rt.SaveAll(); err != nil {
		t.Fatalf("save: %v", err)
	}

	taskKey := TaskKey("heal", "count", 0)
	owner, err := f.OwnerOf(taskKey)
	if err != nil {
		t.Fatal(err)
	}

	if err := f.StartSupervision(fastSupervision()); err != nil {
		t.Fatal(err)
	}
	defer f.StopSupervision()
	if err := f.SuperviseRuntime(rt); err != nil {
		t.Fatal(err)
	}

	// Second batch lands after the checkpoint, then the state owner dies:
	// the replayed input log must carry these tuples across the recovery.
	push(40)
	waitUntil(t, 10*time.Second, "second batch processed", func() bool { return count("w0") == 20 })
	f.FailNode(owner)

	// Ownership can only migrate off the dead node through a verdict that
	// blames the current owner, so detection is proven by ANY task-bound
	// event naming it — the successful heal may be recorded under a later
	// verdict if the first attempt's re-protection needed a retry.
	waitUntil(t, 20*time.Second, "task-bound self-heal", func() bool {
		detected, healed := false, false
		for _, e := range f.SelfHealEvents() {
			if e.App != taskKey || !e.TaskBound {
				continue
			}
			if e.Node == owner {
				detected = true
			}
			if e.Err == nil && !e.ReprotectedAt.IsZero() {
				healed = true
			}
		}
		return detected && healed
	})

	// The recovered task must still be processing: counts survived (via
	// snapshot + replay) and new tuples keep arriving. Supervision has done
	// its job; stop it before draining so an aggressively tuned detector
	// cannot false-positive-kill the task mid-shutdown.
	waitUntil(t, 10*time.Second, "replayed state intact", func() bool { return count("w0") == 20 })
	f.StopSupervision()
	push(40)
	close(in)
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w := fmt.Sprintf("w%d", i)
		if got := count(w); got != 30 {
			t.Fatalf("count[%s] = %d after self-heal, want 30", w, got)
		}
	}

	// Replication of the task state must be back at full strength on a
	// live owner.
	waitUntil(t, 20*time.Second, "task state re-replication", func() bool {
		return healthyReplication(f, taskKey)
	})
	newOwner, err := f.OwnerOf(taskKey)
	if err != nil {
		t.Fatal(err)
	}
	if newOwner == owner || !f.ring.Net.Alive(newOwner) {
		for _, nid := range f.ring.IDs() {
			if !f.ring.Net.Alive(nid) {
				continue
			}
			p, err := f.cluster.Manager(nid).LookupPlacement(taskKey)
			t.Logf("view from %s: owner=%s epoch=%d ver=%+v err=%v",
				nid.Short(), p.Owner.Short(), p.Epoch, p.Version, err)
		}
		t.Fatalf("task state still owned by dead node %s", newOwner.Short())
	}
}
