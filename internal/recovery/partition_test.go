package recovery

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sr3/internal/id"
	"sr3/internal/shard"
	"sr3/internal/simnet"
)

// partitionEnv is one armed partition-during-recovery scenario: a saved
// state, a failed owner, and two shard indices whose (disjoint) holder
// pairs a scheduled partition will isolate mid-collection.
type partitionEnv struct {
	c           *Cluster
	snap        []byte
	placement   shard.Placement
	replacement id.ID
	victims     []id.ID
	others      []id.ID
}

// newPartitionEnv saves a state, fails the owner, and picks two shard
// indices with disjoint replica-holder pairs, none of them the
// replacement. Isolating all four holders guarantees the partition
// bites: the scheduled trigger lets at most one in-flight message
// escape, which can satisfy at most one of the two doomed indices.
func newPartitionEnv(t *testing.T, seed int64) *partitionEnv {
	t.Helper()
	c := buildCluster(t, 48, seed)
	owner := c.Ring.IDs()[3]
	snap := randomSnapshot(60_000, seed)
	p := saveState(t, c, owner, "app", snap, 12, 2)
	c.Ring.Fail(owner)
	c.Ring.MaintenanceRound()
	replacement, ok := c.Ring.ClosestLive(owner)
	if !ok {
		t.Fatal("no replacement")
	}

	env := &partitionEnv{c: c, snap: snap, placement: p, replacement: replacement}
	eligible := func(holders []id.ID) bool {
		if len(holders) != 2 {
			return false
		}
		for _, h := range holders {
			if h == replacement || h == owner || !c.Ring.Net.Alive(h) {
				return false
			}
		}
		return true
	}
	for i := 0; i < p.M && env.victims == nil; i++ {
		hi := p.NodesForIndex(i)
		if !eligible(hi) {
			continue
		}
		for j := i + 1; j < p.M; j++ {
			hj := p.NodesForIndex(j)
			if !eligible(hj) {
				continue
			}
			disjoint := true
			for _, a := range hi {
				for _, b := range hj {
					if a == b {
						disjoint = false
					}
				}
			}
			if !disjoint {
				continue
			}
			env.victims = append(append([]id.ID{}, hi...), hj...)
			break
		}
	}
	if env.victims == nil {
		t.Fatal("no two indices with disjoint off-replacement holder pairs")
	}
	isVictim := make(map[id.ID]bool, len(env.victims))
	for _, v := range env.victims {
		isVictim[v] = true
	}
	for _, nid := range c.Ring.LiveIDs() {
		if !isVictim[nid] {
			env.others = append(env.others, nid)
		}
	}
	return env
}

// arm schedules a partition isolating the victim holders, triggered by
// the AfterMessages-th delivery of the mechanism's collection kind —
// so the split lands while the recovery is in flight. healAfter <= 0
// keeps the partition until Heal.
func (e *partitionEnv) arm(kind string, healAfter time.Duration) *simnet.Chaos {
	ch := simnet.NewChaos(7)
	ch.SchedulePartition(simnet.PartitionSchedule{
		TriggerPrefix: kind,
		AfterMessages: 1,
		Groups:        [][]id.ID{e.victims, e.others},
		HealAfter:     healAfter,
	})
	e.c.Ring.Net.SetChaos(ch)
	return ch
}

var partitionKinds = map[Mechanism]string{
	Star: kindFetchIndex,
	Line: kindLineCollect,
	Tree: kindTreeCollect,
}

// TestPartitionDuringRecoveryHealsAllMechanisms fires a partition on the
// first collection message of each mechanism and heals it 40ms later:
// the failover ladder must ride out the split (retry rounds outlast the
// heal) and still reassemble byte-identical state, reporting the
// providers it observed unreachable.
func TestPartitionDuringRecoveryHealsAllMechanisms(t *testing.T) {
	for _, mech := range []Mechanism{Star, Line, Tree} {
		t.Run(mech.String(), func(t *testing.T) {
			env := newPartitionEnv(t, 90+int64(mech))
			ch := env.arm(partitionKinds[mech], 40*time.Millisecond)
			opts := DefaultOptions()
			opts.FailoverRetries = 5
			opts.RetryBackoff = 20 * time.Millisecond
			res, err := joined(env.c.Recover("app", mech, opts))
			if err != nil {
				t.Fatalf("%s under partition: %v", mech, err)
			}
			if !bytes.Equal(res.Snapshot, env.snap) {
				t.Fatal("recovered state differs")
			}
			st := ch.Stats()
			if st.PartitionsFired != 1 {
				t.Fatalf("PartitionsFired = %d, want 1", st.PartitionsFired)
			}
			if st.Severed == 0 {
				t.Fatal("partition never severed a call (trigger landed too late)")
			}
			if res.Outcome.DeadProviders == 0 && res.Outcome.Failovers == 0 {
				t.Fatalf("outcome does not reflect the partition: %+v", res.Outcome)
			}
		})
	}
}

// TestPartitionExhaustsReplicasTypedError keeps the mid-recovery
// partition permanent: with every holder of two shard indices isolated,
// each mechanism must surface the typed failover-exhaustion error from
// its star ladder (line and tree degrade to star first), not a generic
// failure.
func TestPartitionExhaustsReplicasTypedError(t *testing.T) {
	for _, mech := range []Mechanism{Star, Line, Tree} {
		t.Run(mech.String(), func(t *testing.T) {
			env := newPartitionEnv(t, 90+int64(mech))
			env.arm(partitionKinds[mech], 0)
			opts := DefaultOptions()
			opts.FailoverRetries = 2
			opts.RetryBackoff = 5 * time.Millisecond
			_, err := joined(env.c.Recover("app", mech, opts))
			if err == nil {
				t.Fatalf("%s recovered through a permanent partition of all replicas", mech)
			}
			if !errors.Is(err, ErrReplicasExhausted) {
				t.Fatalf("%s: want ErrReplicasExhausted, got %v", mech, err)
			}
		})
	}
}

// TestDegradedRoutingPrefersHealthyReplicas pins the gray-failure
// rerouting contracts: planning avoids degraded holders when a healthy
// replica exists, star fetch order demotes degraded replicas to last
// resort, and a degraded *sole* holder is still used (slow beats
// unrecoverable).
func TestDegradedRoutingPrefersHealthyReplicas(t *testing.T) {
	c := buildCluster(t, 48, 95)
	owner := c.Ring.IDs()[3]
	snap := randomSnapshot(60_000, 95)
	p := saveState(t, c, owner, "app", snap, 12, 2)
	c.Ring.Fail(owner)
	c.Ring.MaintenanceRound()
	replacement, ok := c.Ring.ClosestLive(owner)
	if !ok {
		t.Fatal("no replacement")
	}

	holders := p.NodesForIndex(0)
	if len(holders) != 2 {
		t.Fatalf("index 0 has %d holders, want 2", len(holders))
	}
	deg := holders[0]
	if deg == replacement {
		deg = holders[1]
	}
	c.MarkDegraded(deg)

	// Replica demotion: the degraded holder moves to the back of the
	// star try order.
	order := c.Manager(replacement).demoteDegraded(p.NodesForIndex(0))
	if order[len(order)-1] != deg {
		t.Fatalf("degraded holder not demoted: order %v, degraded %s", order, deg.Short())
	}

	// Planning: no stage routes through the degraded node while every
	// one of its indices has a healthy live replica.
	stages, err := stagesFor(c, p, replacement)
	if err != nil {
		t.Fatalf("planStages: %v", err)
	}
	for _, st := range stages {
		if st.Node != deg {
			continue
		}
		for _, idx := range st.Indices {
			for _, h := range p.NodesForIndex(idx) {
				if h != deg && c.Ring.Net.Alive(h) && c.managers[h].hasShardAt("app", idx, p.Version) {
					t.Fatalf("index %d planned on degraded node despite healthy replica %s", idx, h.Short())
				}
			}
		}
	}

	// Recovery still reassembles byte-identical state around the
	// degraded node, for every mechanism.
	for _, mech := range []Mechanism{Star, Line, Tree} {
		res, err := joined(c.Recover("app", mech, DefaultOptions()))
		if err != nil {
			t.Fatalf("%s with degraded holder: %v", mech, err)
		}
		if !bytes.Equal(res.Snapshot, snap) {
			t.Fatalf("%s recovered state differs", mech)
		}
	}

	// Sole-holder fallback: with both replicas of index 0 degraded, the
	// planner must still pick one rather than fail.
	for _, h := range holders {
		c.MarkDegraded(h)
	}
	if _, err := stagesFor(c, p, replacement); err != nil {
		t.Fatalf("planStages with only degraded holders: %v", err)
	}
	res, err := joined(c.Recover("app", Tree, DefaultOptions()))
	if err != nil {
		t.Fatalf("tree with degraded sole holders: %v", err)
	}
	if !bytes.Equal(res.Snapshot, snap) {
		t.Fatal("recovered state differs with degraded sole holders")
	}

	// ClearDegraded restores normal ordering.
	for _, h := range holders {
		c.ClearDegraded(h)
	}
	if got := c.DegradedIDs(); len(got) != 0 {
		t.Fatalf("degraded set not empty after clears: %v", got)
	}
}
