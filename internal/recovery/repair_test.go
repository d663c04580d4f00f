package recovery

import (
	"bytes"
	"testing"

	"sr3/internal/id"
	"sr3/internal/shard"
)

// assertFullyReplicated checks that every shard index of app has exactly r
// live, shard-holding replicas and that the published placement references
// only live nodes.
func assertFullyReplicated(t *testing.T, c *Cluster, app string, r int) shard.Placement {
	t.Helper()
	health, p, err := c.ReplicaHealth(app)
	if err != nil {
		t.Fatalf("replica health: %v", err)
	}
	for i := 0; i < p.M; i++ {
		if health[i] != r {
			t.Fatalf("shard index %d has %d live replicas, want %d", i, health[i], r)
		}
	}
	for k, nid := range p.Loc {
		if !c.Ring.Net.Alive(nid) {
			t.Fatalf("placement key %v points at dead node %s", k, nid.Short())
		}
	}
	return p
}

func TestRepairRestoresReplicationAfterProviderDeath(t *testing.T) {
	c := buildCluster(t, 24, 901)
	owner := c.Ring.IDs()[0]
	snap := randomSnapshot(64_000, 9)
	p := saveState(t, c, owner, "app", snap, 8, 2)

	// Kill one provider (not the owner).
	var victim id.ID
	for _, h := range p.Holders() {
		if h != owner {
			victim = h
			break
		}
	}
	lost := len(p.KeysOnNode(victim))
	if lost == 0 {
		t.Fatal("victim holds no shards")
	}
	c.Ring.Fail(victim)

	rep, err := c.RepairApp("app")
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rep.Missing != lost || rep.Repushed != lost || rep.Unrepairable != 0 {
		t.Fatalf("repair report %+v, want missing=repushed=%d", rep, lost)
	}
	if !rep.Republished {
		t.Fatal("repair did not republish the placement")
	}
	assertFullyReplicated(t, c, "app", 2)

	// The state must still recover byte-identically after the repair.
	c.Ring.Fail(owner)
	res, err := joined(c.Recover("app", Star, DefaultOptions()))
	if err != nil {
		t.Fatalf("recover after repair: %v", err)
	}
	if !bytes.Equal(res.Snapshot, snap) {
		t.Fatal("recovered snapshot differs after repair")
	}
}

func TestRepairIsIdempotentWhenHealthy(t *testing.T) {
	c := buildCluster(t, 24, 902)
	owner := c.Ring.IDs()[0]
	saveState(t, c, owner, "app", randomSnapshot(10_000, 2), 4, 2)

	rep, err := c.RepairApp("app")
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rep.Missing != 0 || rep.Repushed != 0 || rep.Republished || rep.OwnerReassigned {
		t.Fatalf("healthy placement should be a no-op, got %+v", rep)
	}
	if rep.Checked != 4*2 {
		t.Fatalf("checked %d slots, want 8", rep.Checked)
	}
}

func TestRepairReassignsDeadOwner(t *testing.T) {
	c := buildCluster(t, 24, 903)
	owner := c.Ring.IDs()[0]
	saveState(t, c, owner, "app", randomSnapshot(20_000, 3), 4, 2)

	c.Ring.Fail(owner)
	rep, err := c.RepairApp("app")
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !rep.OwnerReassigned {
		t.Fatal("dead owner was not reassigned")
	}
	_, p, err := c.ReplicaHealth("app")
	if err != nil {
		t.Fatal(err)
	}
	if p.Owner == owner || !c.Ring.Net.Alive(p.Owner) {
		t.Fatalf("republished owner %s is not a live replacement", p.Owner.Short())
	}
	assertFullyReplicated(t, c, "app", 2)
}

// TestRepeatedChurnReplication is the repeated-churn property test: after
// k sequential provider kills (k < r cumulative per window, each followed
// by a repair pass), every shard index is back at r replicas and the
// published placement never references a dead node.
func TestRepeatedChurnReplication(t *testing.T) {
	const (
		nodes = 40
		m     = 8
		r     = 3
		kills = 6
	)
	c := buildCluster(t, nodes, 904)
	owner := c.Ring.IDs()[0]
	snap := randomSnapshot(96_000, 7)
	saveState(t, c, owner, "app", snap, m, r)

	dead := map[id.ID]bool{}
	for round := 0; round < kills; round++ {
		_, p, err := c.ReplicaHealth("app")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Kill one live holder per round (never the current owner, so the
		// app stays lookup-able without a recovery in this test).
		var victim id.ID
		found := false
		for _, h := range p.Holders() {
			if h != p.Owner && c.Ring.Net.Alive(h) {
				victim = h
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("round %d: no live non-owner holder to kill", round)
		}
		c.Ring.Fail(victim)
		dead[victim] = true

		rep, err := c.RepairApp("app")
		if err != nil {
			t.Fatalf("round %d repair: %v", round, err)
		}
		if rep.Unrepairable != 0 {
			t.Fatalf("round %d: %d slots unrepairable (%+v)", round, rep.Unrepairable, rep)
		}

		p = assertFullyReplicated(t, c, "app", r)
		for _, nid := range p.Holders() {
			if dead[nid] {
				t.Fatalf("round %d: placement still references killed node %s", round, nid.Short())
			}
		}
	}

	// After all the churn the state itself must survive an owner failure.
	_, p, err := c.ReplicaHealth("app")
	if err != nil {
		t.Fatal(err)
	}
	c.Ring.Fail(p.Owner)
	res, err := joined(c.Recover("app", Star, DefaultOptions()))
	if err != nil {
		t.Fatalf("final recover: %v", err)
	}
	if !bytes.Equal(res.Snapshot, snap) {
		t.Fatal("snapshot corrupted by repeated churn + repair")
	}
}

// TestGCStaleShardVersions is the regression test for stale-shard GC: a
// re-save with fewer shards (different placement geometry) leaves old-
// version replicas behind on providers; the maintenance GC must delete
// them once the new placement is published, without touching the live
// version.
func TestGCStaleShardVersions(t *testing.T) {
	c := buildCluster(t, 24, 905)
	owner := c.Ring.IDs()[0]
	mgr := c.Manager(owner)

	// Save v1 with m=8, then v2 with m=4: indices 4..7 of v1 are now
	// garbage everywhere, and indices 0..3 of v1 are stale versions.
	if _, err := mgr.Save("app", randomSnapshot(32_000, 1), 8, 2, mgr.NextVersion(1)); err != nil {
		t.Fatal(err)
	}
	staleBefore := clusterShardCount(c, "app")
	snap2 := randomSnapshot(24_000, 2)
	p2, err := mgr.Save("app", snap2, 4, 2, mgr.NextVersion(2))
	if err != nil {
		t.Fatal(err)
	}
	if staleBefore == 0 {
		t.Fatal("first save stored no shards")
	}

	rep, err := c.RepairApp("app")
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rep.GCStale == 0 {
		t.Fatalf("no stale shards collected (report %+v)", rep)
	}

	// Exactly the live version's replicas remain, where the placement says.
	total := 0
	for _, nid := range c.Ring.LiveIDs() {
		m := c.Manager(nid)
		for i := 0; i < 8; i++ {
			for j := 0; j < 2; j++ {
				k := shard.Key{App: "app", Index: i, Replica: j}
				if m.HasShard(k) {
					if p2.Loc[k] != nid {
						t.Fatalf("node %s holds %v which the placement does not assign to it", nid.Short(), k)
					}
					total++
				}
			}
		}
	}
	if total != 4*2 {
		t.Fatalf("%d shard replicas remain after GC, want %d", total, 4*2)
	}

	// The surviving state is the new version, intact.
	c.Ring.Fail(owner)
	res, err := joined(c.Recover("app", Star, DefaultOptions()))
	if err != nil {
		t.Fatalf("recover after GC: %v", err)
	}
	if !bytes.Equal(res.Snapshot, snap2) {
		t.Fatal("GC damaged the live version")
	}
}

// TestGCKeepsNewerInFlightShards pins the GC safety rule: replicas newer
// than the published placement (an in-flight save) must survive a GC pass.
func TestGCKeepsNewerInFlightShards(t *testing.T) {
	c := buildCluster(t, 24, 906)
	owner := c.Ring.IDs()[0]
	mgr := c.Manager(owner)
	if _, err := mgr.Save("app", randomSnapshot(16_000, 1), 4, 2, mgr.NextVersion(1)); err != nil {
		t.Fatal(err)
	}
	p1, err := mgr.LookupPlacement("app")
	if err != nil {
		t.Fatal(err)
	}

	// Simulate an in-flight save: push a newer-version shard to a node
	// without publishing its placement yet.
	newer := mgr.NextVersion(5)
	shards, err := shard.Split("app", owner, randomSnapshot(8_000, 4), 4, newer)
	if err != nil {
		t.Fatal(err)
	}
	holder := c.Ring.IDs()[1]
	if err := mgr.pushShard(holder, shards[0]); err != nil {
		t.Fatal(err)
	}

	stale, orphans := c.Manager(holder).GCShards("app", p1)
	_ = stale
	_ = orphans
	if !c.Manager(holder).HasShard(shards[0].Key()) {
		t.Fatal("GC deleted an in-flight (newer-version) shard")
	}
}

func clusterShardCount(c *Cluster, app string) int {
	n := 0
	for _, nid := range c.Ring.LiveIDs() {
		n += c.Manager(nid).ShardsHeld()[app]
	}
	return n
}
