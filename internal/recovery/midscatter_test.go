package recovery

import (
	"bytes"
	"errors"
	"testing"

	"sr3/internal/id"
	"sr3/internal/shard"
	"sr3/internal/simnet"
	"sr3/internal/state"
)

// storeLocal stores one replica as a push of it with no transport body
// would.
func (m *Manager) storeLocal(s shard.Shard, published state.Version) {
	m.storeBatch([]shard.Shard{s}, published, nil)
}

// localShardsFor is heldShards for a caller that is done with the replicas
// before anything can supersede them.
func (m *Manager) localShardsFor(app string, indices []int, v state.Version) []shard.Shard {
	ss, unpin := m.heldShards(app, indices, v)
	unpin()
	return ss
}

// pushShard delivers one replica to a holder as a single-shard batch.
func (m *Manager) pushShard(target id.ID, s shard.Shard) error {
	_, err := m.pushShardBatch(target, []shard.Shard{s}, nil, nil)
	return err
}

// TestManagerRetainsSupersededVersion pins the two-version rule on one
// holder: a saver that dies after pushing only part of a new version
// leaves that version incomplete everywhere, so holders must keep the
// superseded replicas until the *next* supersession — otherwise no
// complete version exists anywhere and the state is unrecoverable.
func TestManagerRetainsSupersededVersion(t *testing.T) {
	const task = "app/count/0"
	c := buildCluster(t, 4, 11)
	m := c.Manager(c.Ring.IDs()[0])
	split := func(snapshot []byte, v state.Version) []shard.Shard {
		t.Helper()
		shards, err := shard.Split(task, id.HashKey(task), snapshot, 4, v)
		if err != nil {
			t.Fatal(err)
		}
		return shards
	}
	store := func(shards []shard.Shard) {
		for _, s := range shards {
			m.storeLocal(s, state.Version{})
		}
	}
	all := []int{0, 1, 2, 3}
	v1 := state.Version{Timestamp: 1, Seq: 1}
	v2 := state.Version{Timestamp: 2, Seq: 2}
	snap1 := bytes.Repeat([]byte("one "), 64)
	snap2 := bytes.Repeat([]byte("two "), 64)

	store(split(snap1, v1))     // v1 fully pushed
	store(split(snap2, v2)[:2]) // v2 interrupted after 2 of 4 replicas

	if got := m.ShardsHeld()[task]; got != 6 {
		t.Fatalf("held = %d, want 6 (4 retained v1 + 2 partial v2)", got)
	}
	if _, err := shard.Reassemble(m.localShardsFor(task, all, v2)); err == nil {
		t.Fatal("partial v2 reassembled — test premise broken")
	}
	data, err := shard.Reassemble(m.localShardsFor(task, all, v1))
	if err != nil {
		t.Fatalf("superseded complete version lost: %v", err)
	}
	if !bytes.Equal(data, snap1) {
		t.Fatalf("fallback reassembly = %q, want v1 snapshot", data)
	}

	// A later complete version drops v1 and makes v2's remnants the
	// fallback tier — retention is exactly two versions deep.
	v3 := state.Version{Timestamp: 3, Seq: 3}
	store(split(snap2, v3))
	if left := m.localShardsFor(task, all, v1); len(left) != 0 {
		t.Fatalf("%d v1 replicas still held after two supersessions", len(left))
	}

	// Duplicate and stale pushes are dropped (repair idempotence).
	store(split(snap1, v1))
	store(split(snap2, v3))
	if got := m.ShardsHeld()[task]; got != 6 {
		t.Fatalf("stale or duplicate re-push changed the held set: %d", got)
	}
}

// TestRepeatedAbortedSavesKeepPublishedVersion: an owner whose saves keep
// aborting (a holder it cannot reach, a node draining on its way down)
// pushes one unpublished version after another at the holders it does
// reach. Each push names the version the owner last published, and that
// version — not merely "the previous one" — is what the holder keeps.
func TestRepeatedAbortedSavesKeepPublishedVersion(t *testing.T) {
	const task = "app/count/0"
	c := buildCluster(t, 4, 12)
	m := c.Manager(c.Ring.IDs()[0])
	push := func(v, published state.Version, n int) {
		t.Helper()
		shards, err := shard.Split(task, id.HashKey(task), bytes.Repeat([]byte{byte(v.Seq)}, 256), 4, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shards[:n] {
			m.storeLocal(s, published)
		}
	}
	v := func(n uint64) state.Version { return state.Version{Timestamp: int64(n), Seq: n} }
	push(v(1), state.Version{}, 4) // published
	push(v(2), v(1), 2)            // aborted
	push(v(3), v(1), 2)            // aborted again
	all := []int{0, 1, 2, 3}
	if _, err := shard.Reassemble(m.localShardsFor(task, all, v(1))); err != nil {
		t.Fatalf("published version pushed out by two aborted saves: %v", err)
	}
	if left := m.localShardsFor(task, all, v(2)); len(left) != 0 {
		t.Fatalf("%d replicas of the first aborted save still held", len(left))
	}
	push(v(4), v(1), 4) // lands everywhere and is published ...
	push(v(5), v(4), 4) // ... so the next save supersedes v1 at last
	if left := m.localShardsFor(task, all, v(1)); len(left) != 0 {
		t.Fatalf("%d replicas of v1 held after a newer version was published", len(left))
	}
	if _, err := shard.Reassemble(m.localShardsFor(task, all, v(4))); err != nil {
		t.Fatalf("published v4 not kept as the fallback: %v", err)
	}
}

// TestSaverDiesMidScatterKeepsLastCompleteVersion cuts the saver off after
// its second holder push of a new version: the save aborts with nothing
// published, the holders it reached now store both versions, and every
// mechanism must still rebuild the previous, complete version byte-exact.
// With m×r = the leaf-set size the first two holders pushed to carry both
// replicas of shard index 0, so a holder that overwrote by key would have
// destroyed that index.
func TestSaverDiesMidScatterKeepsLastCompleteVersion(t *testing.T) {
	for _, mech := range []Mechanism{Star, Line, Tree} {
		t.Run(mech.String(), func(t *testing.T) {
			c := buildCluster(t, 40, 21)
			owner := c.Ring.IDs()[5]
			mgr := c.Manager(owner)
			m := len(mgr.node.LeafSet()) / 2
			snap1 := randomSnapshot(48_000, 1)
			p1 := saveState(t, c, owner, "app", snap1, m, 2)

			var rest []id.ID
			for _, nid := range c.Ring.IDs() {
				if nid != owner {
					rest = append(rest, nid)
				}
			}
			ch := simnet.NewChaos(3)
			ch.SchedulePartition(simnet.PartitionSchedule{
				TriggerPrefix: kindStoreBatch,
				AfterMessages: 2,
				Groups:        [][]id.ID{{owner}, rest},
			})
			c.Ring.Net.SetChaos(ch)
			_, err := mgr.Save("app", randomSnapshot(48_000, 2), m, 2, mgr.NextVersion(2))
			if !errors.Is(err, ErrSaveAborted) {
				t.Fatalf("interrupted save: got %v, want ErrSaveAborted", err)
			}
			if st := ch.Stats(); st.PartitionsFired != 1 || st.Severed == 0 {
				t.Fatalf("the cut did not land inside the scatter: %+v", st)
			}
			both := 0
			for _, h := range p1.NodesForIndex(0) {
				if c.Manager(h).ShardsHeld()["app"] == 2 {
					both++
				}
			}
			if both != 2 {
				t.Fatalf("%d of index 0's holders store both versions, want 2 — test premise broken", both)
			}

			c.Ring.Fail(owner)
			ch.Heal()
			c.Ring.MaintenanceRound()
			res, err := joined(c.Recover("app", mech, DefaultOptions()))
			if err != nil {
				t.Fatalf("recover after a half-pushed save: %v", err)
			}
			if res.Version != p1.Version || !bytes.Equal(res.Snapshot, snap1) {
				t.Fatalf("recovered %v (%d bytes), want the last complete version %v byte-exact",
					res.Version, len(res.Snapshot), p1.Version)
			}
		})
	}
}
