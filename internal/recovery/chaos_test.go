package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sr3/internal/id"
	"sr3/internal/shard"
	"sr3/internal/simnet"
)

// chaosEnv is one armed mid-recovery kill scenario: a saved state, a
// failed owner, and the victim(s) a chaos plan will crash when the
// recovery's first collection messages reach them.
type chaosEnv struct {
	c           *Cluster
	snap        []byte
	placement   shard.Placement
	replacement id.ID
	victims     []id.ID
}

// newChaosEnv saves a state, fails the owner, and picks mechanism-
// appropriate victims: for star, both replica holders of one shard index
// (so the index has no live replica until they restart); for line/tree,
// a mid-chain stage / non-root tree member (so the failure surfaces
// mid-collection, not on the first hop).
func newChaosEnv(t *testing.T, mech Mechanism, seed int64) *chaosEnv {
	t.Helper()
	c := buildCluster(t, 48, seed)
	owner := c.Ring.IDs()[3]
	snap := randomSnapshot(60_000, seed)
	p := saveState(t, c, owner, "app", snap, 8, 2)
	c.Ring.Fail(owner)
	c.Ring.MaintenanceRound()
	replacement, ok := c.Ring.ClosestLive(owner)
	if !ok {
		t.Fatal("no replacement")
	}

	env := &chaosEnv{c: c, snap: snap, placement: p, replacement: replacement}
	switch mech {
	case Star:
		// Both holders of one index: the transient double-kill leaves the
		// index with zero live replicas until the downtime elapses.
		for i := 0; i < p.M; i++ {
			holders := p.NodesForIndex(i)
			ok := len(holders) == 2
			for _, h := range holders {
				if h == replacement {
					ok = false
				}
			}
			if ok {
				env.victims = holders
				break
			}
		}
		if env.victims == nil {
			t.Fatal("no index with both holders off-replacement")
		}
	case Line, Tree:
		stages, err := stagesFor(c, p, replacement)
		if err != nil {
			t.Fatalf("stages: %v", err)
		}
		var remote []stage
		for _, st := range stages {
			if st.Node != replacement {
				remote = append(remote, st)
			}
		}
		if len(remote) < 2 {
			t.Fatalf("only %d remote stages; need a mid-structure victim", len(remote))
		}
		// remote[1] is the second chain stage (line) and a child of the
		// tree root (fanout 2), so the kill lands mid-collection.
		env.victims = []id.ID{remote[1].Node}
	}
	return env
}

// arm attaches a chaos plan crashing every victim on its first inbound
// recovery message. A zero downtime is a permanent kill.
func (e *chaosEnv) arm(kindPrefix string, downtime time.Duration) *simnet.Chaos {
	ch := simnet.NewChaos(1)
	for _, v := range e.victims {
		ch.Crash(simnet.CrashSchedule{
			Node: v, KindPrefix: kindPrefix, AfterMessages: 1, Downtime: downtime,
		})
	}
	e.c.Ring.Net.SetChaos(ch)
	return ch
}

// TestChaosMidRecoveryFailover is the acceptance scenario: a provider is
// killed mid-recovery for each mechanism, and the failover ladder must
// still reassemble byte-identical state — while the identical fault plan
// with failover disabled reproduces the pre-chaos abort.
func TestChaosMidRecoveryFailover(t *testing.T) {
	t.Run("star", func(t *testing.T) {
		// With failover: both holders of one index crash transiently; the
		// retry rounds' exponential backoff (50+100+200+400 ms) outlasts
		// the 250 ms downtime, so a later round succeeds.
		env := newChaosEnv(t, Star, 77)
		ch := env.arm("sr3.", 250*time.Millisecond)
		opts := DefaultOptions()
		opts.FailoverRetries = 4
		opts.RetryBackoff = 50 * time.Millisecond
		res, err := joined(env.c.Recover("app", Star, opts))
		if err != nil {
			t.Fatalf("star under chaos: %v", err)
		}
		if !bytes.Equal(res.Snapshot, env.snap) {
			t.Fatal("recovered state differs")
		}
		if res.Outcome.Failovers == 0 || res.Outcome.DeadProviders == 0 || res.Outcome.Attempts < 2 {
			t.Fatalf("outcome does not reflect the failover: %+v", res.Outcome)
		}
		if st := ch.Stats(); st.Crashes != 2 {
			t.Fatalf("chaos stats %+v", st)
		}

		// Same fault plan, failover disabled: the old abort.
		env = newChaosEnv(t, Star, 77)
		env.arm("sr3.", 250*time.Millisecond)
		opts.DisableFailover = true
		if _, err := joined(env.c.Recover("app", Star, opts)); !errors.Is(err, ErrShardLost) {
			t.Fatalf("disabled failover: want ErrShardLost, got %v", err)
		}
	})

	t.Run("line", func(t *testing.T) {
		// A mid-chain stage dies permanently on the first collect message:
		// the partial accumulation unwinds and the replacement replans the
		// remaining chain around the dead node.
		env := newChaosEnv(t, Line, 78)
		env.arm("sr3.line", 0)
		opts := DefaultOptions()
		res, err := joined(env.c.Recover("app", Line, opts))
		if err != nil {
			t.Fatalf("line under chaos: %v", err)
		}
		if !bytes.Equal(res.Snapshot, env.snap) {
			t.Fatal("recovered state differs")
		}
		if res.Outcome.DeadProviders == 0 {
			t.Fatalf("dead provider unreported: %+v", res.Outcome)
		}
		if res.Outcome.Attempts < 2 && !res.Outcome.Degraded {
			t.Fatalf("no replan and no degrade: %+v", res.Outcome)
		}

		env = newChaosEnv(t, Line, 78)
		env.arm("sr3.line", 0)
		opts.DisableFailover = true
		if _, err := joined(env.c.Recover("app", Line, opts)); !errors.Is(err, ErrProviderLost) {
			t.Fatalf("disabled failover: want ErrProviderLost, got %v", err)
		}
	})

	t.Run("tree", func(t *testing.T) {
		// A non-root tree member dies permanently: its parent drops the
		// subtree and the replacement degrades the missing sub-shards to
		// direct star-style fetches.
		env := newChaosEnv(t, Tree, 79)
		env.arm("sr3.tree", 0)
		opts := DefaultOptions()
		res, err := joined(env.c.Recover("app", Tree, opts))
		if err != nil {
			t.Fatalf("tree under chaos: %v", err)
		}
		if !bytes.Equal(res.Snapshot, env.snap) {
			t.Fatal("recovered state differs")
		}
		if !res.Outcome.Degraded || res.Outcome.DegradedTo != Star {
			t.Fatalf("tree did not degrade to star: %+v", res.Outcome)
		}
		if res.Outcome.DeadProviders == 0 || res.Outcome.Failovers == 0 {
			t.Fatalf("outcome does not reflect the loss: %+v", res.Outcome)
		}

		env = newChaosEnv(t, Tree, 79)
		env.arm("sr3.tree", 0)
		opts.DisableFailover = true
		if _, err := joined(env.c.Recover("app", Tree, opts)); !errors.Is(err, ErrProviderLost) {
			t.Fatalf("disabled failover: want ErrProviderLost, got %v", err)
		}
	})
}

// TestChaosRandomProviderKillAcrossSeeds kills one randomly chosen
// provider permanently, per seed and mechanism. With two replicas per
// shard and one casualty, every mechanism must always reassemble
// byte-identical state.
func TestChaosRandomProviderKillAcrossSeeds(t *testing.T) {
	for seedN := int64(0); seedN < 4; seedN++ {
		for _, mech := range []Mechanism{Star, Line, Tree} {
			t.Run(fmt.Sprintf("%s/seed%d", mech, seedN), func(t *testing.T) {
				c := buildCluster(t, 44, 200+seedN)
				owner := c.Ring.IDs()[1]
				snap := randomSnapshot(50_000, 300+seedN)
				p := saveState(t, c, owner, "app", snap, 9, 2)
				c.Ring.Fail(owner)
				c.Ring.MaintenanceRound()
				replacement, _ := c.Ring.ClosestLive(owner)

				rng := rand.New(rand.NewSource(400 + seedN + int64(mech)))
				holders := p.Holders()
				var victim id.ID
				for {
					victim = holders[rng.Intn(len(holders))]
					if victim != replacement && victim != owner {
						break
					}
				}
				ch := simnet.NewChaos(500 + seedN)
				ch.Crash(simnet.CrashSchedule{Node: victim, KindPrefix: "sr3.", AfterMessages: 1})
				c.Ring.Net.SetChaos(ch)

				opts := DefaultOptions()
				opts.FailoverRetries = 4
				opts.RetryBackoff = 5 * time.Millisecond
				res, err := joined(c.Recover("app", mech, opts))
				if err != nil {
					t.Fatalf("%s with victim %s: %v", mech, victim.Short(), err)
				}
				if !bytes.Equal(res.Snapshot, snap) {
					t.Fatal("recovered state differs")
				}
			})
		}
	}
}

// TestChaosLossyLinksAllMechanisms runs every mechanism over links that
// drop, duplicate and delay recovery messages. The ladder must absorb
// the faults and reassemble byte-identical state; duplicate deliveries
// additionally exercise collection-handler idempotency.
func TestChaosLossyLinksAllMechanisms(t *testing.T) {
	for _, mech := range []Mechanism{Star, Line, Tree} {
		t.Run(mech.String(), func(t *testing.T) {
			c := buildCluster(t, 44, 600+int64(mech))
			owner := c.Ring.IDs()[2]
			snap := randomSnapshot(50_000, 700+int64(mech))
			saveState(t, c, owner, "app", snap, 9, 2)
			c.Ring.Fail(owner)
			c.Ring.MaintenanceRound()

			ch := simnet.NewChaos(800 + int64(mech))
			ch.SetLinkFaults(simnet.LinkFaults{
				DropProb:  0.05,
				DupProb:   0.05,
				DelayProb: 0.10,
				Delay:     2 * time.Millisecond,
				// Only recovery traffic: the overlay stays stable underneath.
				KindPrefix: "sr3.",
			})
			c.Ring.Net.SetChaos(ch)

			opts := DefaultOptions()
			opts.FailoverRetries = 6
			opts.RetryBackoff = 2 * time.Millisecond
			res, err := joined(c.Recover("app", mech, opts))
			if err != nil {
				t.Fatalf("%s over lossy links: %v", mech, err)
			}
			if !bytes.Equal(res.Snapshot, snap) {
				t.Fatal("recovered state differs")
			}
		})
	}
}

// TestSaveAbortsCleanlyWhenHolderCrashesMidSave kills a placement target
// the moment the owner's shard push reaches it: Save must fail with
// ErrSaveAborted and publish nothing.
func TestSaveAbortsCleanlyWhenHolderCrashesMidSave(t *testing.T) {
	c := buildCluster(t, 40, 5)
	owner := c.Ring.IDs()[0]
	// Placement assigns shard 0/replica 0 to the lexically first leaf, so
	// that node is guaranteed to receive a push.
	leaves := c.Ring.Node(owner).LeafSet()
	victim := leaves[0]
	for _, l := range leaves {
		if l.Less(victim) {
			victim = l
		}
	}

	ch := simnet.NewChaos(3)
	ch.Crash(simnet.CrashSchedule{Node: victim, KindPrefix: "sr3.shard.store", AfterMessages: 1})
	c.Ring.Net.SetChaos(ch)

	mgr := c.Manager(owner)
	_, err := mgr.Save("app", randomSnapshot(20_000, 1), 8, 2, mgr.NextVersion(1))
	if !errors.Is(err, ErrSaveAborted) {
		t.Fatalf("want ErrSaveAborted, got %v", err)
	}
	if _, ok := mgr.Placement("app"); ok {
		t.Fatal("aborted save recorded a local placement")
	}
	c.Ring.Net.SetChaos(nil)
	if _, err := c.Manager(c.Ring.IDs()[1]).LookupPlacement("app"); !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("aborted save published a placement: %v", err)
	}
}

// TestSaveRacingChurn races Save against concurrent node failures: every
// attempt must either succeed with a placement that actually supports
// recovery, or fail cleanly with the typed ErrSaveAborted — never
// publish a placement pointing at departed nodes and leave it poisoned.
func TestSaveRacingChurn(t *testing.T) {
	c := buildCluster(t, 40, 9)
	owner := c.Ring.IDs()[0]
	mgr := c.Manager(owner)
	rng := rand.New(rand.NewSource(17))

	for iter := 0; iter < 8; iter++ {
		app := fmt.Sprintf("app-%d", iter)
		snap := randomSnapshot(40_000, int64(iter))
		leaves := c.Ring.Node(owner).LeafSet()
		victim := leaves[rng.Intn(len(leaves))]

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			c.Ring.Fail(victim)
		}()
		_, err := mgr.Save(app, snap, 8, 2, mgr.NextVersion(int64(iter+1)))
		wg.Wait()

		if err != nil {
			if !errors.Is(err, ErrSaveAborted) {
				t.Fatalf("iter %d: untyped save failure: %v", iter, err)
			}
			if _, err := c.Manager(c.Ring.IDs()[1]).LookupPlacement(app); !errors.Is(err, ErrNoPlacement) {
				t.Fatalf("iter %d: aborted save published a placement: %v", iter, err)
			}
		} else {
			// The published placement must survive the churn it raced:
			// recovery with one dead holder has to succeed (r = 2).
			res, rerr := joined(c.Recover(app, Star, DefaultOptions()))
			if rerr != nil {
				t.Fatalf("iter %d: published placement unusable: %v", iter, rerr)
			}
			if !bytes.Equal(res.Snapshot, snap) {
				t.Fatalf("iter %d: recovered state differs", iter)
			}
		}
		c.Ring.Restore(victim)
		c.Ring.MaintenanceRound()
	}
}
