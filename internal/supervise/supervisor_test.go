package supervise

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sr3/internal/detector"
	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/recovery"
)

func buildCluster(t testing.TB, n int, seed int64) *recovery.Cluster {
	t.Helper()
	ring, err := dht.NewRing(dht.DefaultConfig(), seed, n)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	return recovery.NewCluster(ring)
}

func randomSnapshot(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// fastConfig tunes the supervisor for test wall-clock: aggressive probing
// and a tight repair period.
func fastConfig() Config {
	return Config{
		Detector: detector.Config{
			Interval:  15 * time.Millisecond,
			Threshold: 8, // conservative: real-time ticking under test load jitters
		},
		RepairInterval: 50 * time.Millisecond,
	}
}

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func fullyReplicated(c *recovery.Cluster, app string, r int) bool {
	health, p, err := c.ReplicaHealth(app)
	if err != nil {
		return false
	}
	for i := 0; i < p.M; i++ {
		if health[i] != r {
			return false
		}
	}
	for _, nid := range p.Loc {
		if !c.Ring.Net.Alive(nid) {
			return false
		}
	}
	return true
}

// recoversSnapshot fails t unless app's published placement, recovered at
// node, is want byte-exact.
func recoversSnapshot(t *testing.T, c *recovery.Cluster, node id.ID, app string, want []byte) {
	t.Helper()
	res, err := c.Manager(node).RecoverDirect(app, recovery.Star, recovery.DefaultOptions())
	if err != nil || !bytes.Equal(res.Snapshot, want) {
		t.Fatalf("%s recovered at %s is not the saved state byte-exact (err %v)", app, node.Short(), err)
	}
}

func TestSupervisorRecoversDeadOwnerAutomatically(t *testing.T) {
	c := buildCluster(t, 20, 1201)
	owner := c.Ring.IDs()[0]
	snap := randomSnapshot(48_000, 11)
	mgr := c.Manager(owner)
	if _, err := mgr.Save("app", snap, 8, 2, mgr.NextVersion(1)); err != nil {
		t.Fatalf("save: %v", err)
	}

	s := New(c, fastConfig())
	s.Protect(StateSpec{App: "app", StateBytes: int64(len(snap))})
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Stop()

	killT := time.Now()
	c.Ring.Fail(owner)

	var ev Event
	waitFor(t, 10*time.Second, "automatic recovery event", func() bool {
		for _, e := range s.Events() {
			if e.App == "app" && e.Err == nil && !e.ReprotectedAt.IsZero() {
				ev = e
				return true
			}
		}
		return false
	})

	if ev.Node != owner {
		t.Fatalf("event blames node %s, want owner %s", ev.Node.Short(), owner.Short())
	}
	if ev.Replacement == owner || ev.Replacement == id.Zero {
		t.Fatalf("bad replacement %s", ev.Replacement.Short())
	}
	if ev.DetectedAt.Before(killT) {
		t.Fatal("detection timestamp predates the kill")
	}
	if ev.ReprotectedAt.Before(ev.DetectedAt) {
		t.Fatal("reprotect timestamp predates detection")
	}

	// The replacement re-protected the byte-identical snapshot.
	recoversSnapshot(t, c, ev.Replacement, "app", snap)

	// RecoverAndReprotect re-saved the state; replication must settle back
	// to r on live nodes only.
	waitFor(t, 10*time.Second, "full re-replication", func() bool {
		return fullyReplicated(c, "app", 2)
	})
}

func TestSupervisorRepairsProviderDeath(t *testing.T) {
	c := buildCluster(t, 20, 1202)
	owner := c.Ring.IDs()[0]
	snap := randomSnapshot(32_000, 12)
	mgr := c.Manager(owner)
	p, err := mgr.Save("app", snap, 8, 2, mgr.NextVersion(1))
	if err != nil {
		t.Fatalf("save: %v", err)
	}

	s := New(c, fastConfig())
	s.Protect(StateSpec{App: "app", StateBytes: int64(len(snap))})
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Stop()

	// Kill a provider that is not the owner: no recovery needed, but the
	// repair path must restore the replication factor on its own.
	var victim id.ID
	for _, h := range p.Holders() {
		if h != owner {
			victim = h
			break
		}
	}
	c.Ring.Fail(victim)

	waitFor(t, 10*time.Second, "replication repaired after provider death", func() bool {
		return fullyReplicated(c, "app", 2)
	})

	// The owner never died, so the state must still be homed there.
	_, pAfter, err := c.ReplicaHealth("app")
	if err != nil {
		t.Fatal(err)
	}
	if pAfter.Owner != owner {
		t.Fatalf("owner moved from %s to %s without an owner death", owner.Short(), pAfter.Owner.Short())
	}
}

// fakeRuntime records the kill/recover calls the supervisor issues for
// task-bound states, standing in for *stream.Runtime.
type fakeRuntime struct {
	mu        sync.Mutex
	cluster   *recovery.Cluster
	killed    []string
	recovered []string
}

func (f *fakeRuntime) KillByKey(key string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.killed = append(f.killed, key)
	return nil
}

func (f *fakeRuntime) RecoverTaskByKey(key string, _ *obs.Tracer, _ obs.SpanContext) error {
	f.mu.Lock()
	f.recovered = append(f.recovered, key)
	f.mu.Unlock()
	// A real runtime restores through its state backend, which runs the
	// cluster recovery; mirror that here.
	_, v, err := f.cluster.Recover(key, recovery.Star, recovery.DefaultOptions())
	v.Release()
	return err
}

func (f *fakeRuntime) calls() (killed, recovered []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.killed...), append([]string(nil), f.recovered...)
}

func TestSupervisorDrivesTaskRuntimeForTaskBoundStates(t *testing.T) {
	c := buildCluster(t, 20, 1203)
	owner := c.Ring.IDs()[0]
	snap := randomSnapshot(24_000, 13)
	mgr := c.Manager(owner)
	const taskKey = "topo/bolt/0"
	if _, err := mgr.Save(taskKey, snap, 8, 2, mgr.NextVersion(1)); err != nil {
		t.Fatalf("save: %v", err)
	}

	rt := &fakeRuntime{cluster: c}
	s := New(c, fastConfig())
	s.BindRuntime(rt)
	s.Protect(StateSpec{App: taskKey, StateBytes: int64(len(snap)), TaskBound: true})
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Stop()

	c.Ring.Fail(owner)

	var ev Event
	waitFor(t, 10*time.Second, "task-bound recovery event", func() bool {
		for _, e := range s.Events() {
			if e.App == taskKey && e.Err == nil && !e.ReprotectedAt.IsZero() {
				ev = e
				return true
			}
		}
		return false
	})
	if !ev.TaskBound {
		t.Fatal("event not marked task-bound")
	}

	killed, recovered := rt.calls()
	if len(killed) != 1 || killed[0] != taskKey {
		t.Fatalf("runtime kill calls = %v, want exactly [%s]", killed, taskKey)
	}
	if len(recovered) != 1 || recovered[0] != taskKey {
		t.Fatalf("runtime recover calls = %v, want exactly [%s]", recovered, taskKey)
	}

	// Repair must have reassigned the placement away from the dead owner
	// and restored r replicas.
	waitFor(t, 10*time.Second, "task state re-replicated", func() bool {
		if !fullyReplicated(c, taskKey, 2) {
			return false
		}
		_, p, err := c.ReplicaHealth(taskKey)
		return err == nil && p.Owner != owner
	})
}

func TestSupervisorHandlesDeathOnce(t *testing.T) {
	c := buildCluster(t, 16, 1204)
	owner := c.Ring.IDs()[0]
	snap := randomSnapshot(8_000, 14)
	mgr := c.Manager(owner)
	if _, err := mgr.Save("app", snap, 4, 2, mgr.NextVersion(1)); err != nil {
		t.Fatalf("save: %v", err)
	}

	s := New(c, fastConfig())
	s.Protect(StateSpec{App: "app", StateBytes: int64(len(snap))})
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer s.Stop()

	c.Ring.Fail(owner)
	waitFor(t, 10*time.Second, "recovery event", func() bool {
		for _, e := range s.Events() {
			if e.App == "app" && e.Err == nil && !e.ReprotectedAt.IsZero() {
				return true
			}
		}
		return false
	})

	// Every node's detector declares the same death; the supervisor must
	// collapse the verdict storm into one handled recovery.
	time.Sleep(150 * time.Millisecond)
	n := 0
	for _, e := range s.Events() {
		if e.App == "app" && e.Node == owner && e.Err == nil {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("owner death handled %d times, want once", n)
	}
}
