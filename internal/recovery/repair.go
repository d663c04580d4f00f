package recovery

import (
	"fmt"
	"sort"

	"sr3/internal/id"
	"sr3/internal/shard"
	"sr3/internal/state"
)

// RepairReport summarizes one repair pass over an application's placement.
type RepairReport struct {
	App     string
	Version state.Version
	// Checked counts shard replica slots examined (M×R when complete).
	Checked int
	// Missing counts slots whose assigned holder was dead, unreachable or
	// no longer storing the shard at the published version.
	Missing int
	// Repushed counts replicas re-materialized on new holders from
	// surviving replicas.
	Repushed int
	// Unrepairable counts slots left under-replicated because no live
	// donor or no eligible new holder existed.
	Unrepairable int
	// OwnerReassigned reports that the placement's owner was dead and the
	// record now names the closest live node instead.
	OwnerReassigned bool
	// Republished reports that the updated placement was written back to
	// the DHT KV.
	Republished bool
	// Superseded reports that a newer save appeared mid-repair, so this
	// pass stood down without publishing anything.
	Superseded bool
	// GCStale / GCOrphans count shard replicas deleted by the version-scoped
	// garbage collection that follows a successful repair: stale = older
	// version than published, orphan = published version but no longer
	// assigned to that node.
	GCStale   int
	GCOrphans int
}

// RepairApp restores an application's replication factor after provider
// death or DHT churn: every (index, replica) slot of the published
// placement is checked against the live overlay, lost replicas are
// re-pushed from surviving ones onto new distinct holders, a dead owner
// is replaced by the closest live node, and the updated placement is
// republished. It is idempotent and safe to run on a timer — the
// supervisor's maintenance loop does exactly that.
//
// The republish is guarded: the placement is re-looked-up first and the
// pass stands down if a newer version appeared (an owner save supersedes
// any concurrent repair). Two concurrent repair passes of the same
// version can still interleave their writes; both converge on the next
// pass, which is why repair runs periodically rather than once.
func (c *Cluster) RepairApp(app string) (RepairReport, error) {
	anyNode, err := c.Ring.AnyLive()
	if err != nil {
		return RepairReport{App: app}, fmt.Errorf("repair %q: %w", app, err)
	}
	p, err := c.managers[anyNode.ID()].LookupPlacement(app)
	if err != nil {
		return RepairReport{App: app}, fmt.Errorf("repair %q: %w", app, err)
	}
	rep := RepairReport{App: app, Version: p.Version}

	// Coordinator: the live node closest to the (possibly dead) owner —
	// the same node recovery would pick as replacement, so repaired
	// replicas cluster around the state's home.
	coord, ok := c.pickReplacement(p.Owner)
	if !ok {
		return rep, fmt.Errorf("repair %q: %w", app, ErrNoReplacement)
	}
	cm := c.managers[coord]
	changed := false
	if p.Owner != coord && !c.Ring.Net.Alive(p.Owner) {
		p.Owner = coord
		rep.OwnerReassigned = true
		changed = true
	}

	// holdersOf tracks which nodes hold a replica of each index under the
	// evolving placement, to keep replicas of one index on distinct nodes.
	holdersOf := func(index int) map[id.ID]bool {
		hs := make(map[id.ID]bool, p.R)
		for j := 0; j < p.R; j++ {
			if nid, ok := p.Loc[shard.Key{App: app, Index: index, Replica: j}]; ok {
				hs[nid] = true
			}
		}
		return hs
	}

	// Phase 1 — plan: find every unhealthy slot, fetch a donor copy (once
	// per index — the pass caches it), pick a new holder, and update the
	// placement tentatively. The actual pushes are deferred so all
	// replicas bound for one holder travel as a single batched store.
	type pendingPush struct {
		key  shard.Key
		prev id.ID
		had  bool
		s    shard.Shard
	}
	pending := make(map[id.ID][]pendingPush)
	fetched := make(map[int]shard.Shard)
	for i := 0; i < p.M; i++ {
		for j := 0; j < p.R; j++ {
			key := shard.Key{App: app, Index: i, Replica: j}
			cur, assigned := p.Loc[key]
			rep.Checked++
			if assigned && c.Ring.Net.Alive(cur) && c.hasShardVersion(cur, app, i, p.Version) {
				continue // slot healthy
			}
			rep.Missing++

			s, haveShard := fetched[i]
			if !haveShard {
				// Donor: any live holder of this index at the published
				// version.
				var donor id.ID
				haveDonor := false
				for _, h := range p.NodesForIndex(i) {
					if h != cur && c.Ring.Net.Alive(h) && c.hasShardVersion(h, app, i, p.Version) {
						donor = h
						haveDonor = true
						break
					}
				}
				if !haveDonor {
					rep.Unrepairable++
					continue
				}
				var err error
				s, err = cm.fetchFrom(donor, app, i, p.Version)
				if err == nil {
					err = ValidateShard(s)
				}
				if err != nil {
					rep.Unrepairable++
					continue
				}
				fetched[i] = s
			}

			// New holder: nearest live node to the owner not already
			// holding a replica of this index (distinct-node invariant).
			taken := holdersOf(i)
			var target id.ID
			haveTarget := false
			for _, cand := range c.Ring.SortedLiveByDistance(p.Owner) {
				// taken includes the current (failed or stale) assignment,
				// so the slot always moves to a node without this index.
				if taken[cand] {
					continue
				}
				target = cand
				haveTarget = true
				break
			}
			if !haveTarget {
				rep.Unrepairable++
				continue
			}
			s.Replica = j
			s.Owner = p.Owner
			pending[target] = append(pending[target], pendingPush{key: key, prev: cur, had: assigned, s: s})
			p.Loc[key] = target
		}
	}

	// Phase 2 — execute: one batched push per new holder (metadata in the
	// payload, shard bodies framed in the raw byte body) instead of one
	// round trip per slot. A failed batch rolls its slots back so the
	// placement never points at a holder that missed the bytes.
	targets := make([]id.ID, 0, len(pending))
	for t := range pending {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Less(targets[j]) })
	for _, target := range targets {
		pushes := pending[target]
		batch := make([]shard.Shard, len(pushes))
		for k, pp := range pushes {
			batch[k] = pp.s
		}
		if err := cm.pushShardBatch(target, batch); err != nil {
			for _, pp := range pushes {
				if pp.had {
					p.Loc[pp.key] = pp.prev
				} else {
					delete(p.Loc, pp.key)
				}
			}
			rep.Unrepairable += len(pushes)
			continue
		}
		rep.Repushed += len(pushes)
		changed = true
	}

	if changed {
		// Supersede guard: if a newer placement (or a competing repair
		// epoch) landed while we worked, publishing ours would roll the
		// app back — stand down instead.
		cur, err := c.managers[anyNode.ID()].LookupPlacement(app)
		if err == nil && cur.Supersedes(p) {
			rep.Superseded = true
			return rep, nil
		}
		// Bump the repair epoch so every reader ranks this rewrite above
		// any same-version copy still sitting on an old KV replica.
		p.Epoch++
		blob, err := EncodePlacement(p)
		if err != nil {
			return rep, fmt.Errorf("repair %q: %w", app, err)
		}
		if err := cm.node.Put(placementKVKey(app), blob); err != nil {
			return rep, fmt.Errorf("repair %q republish: %w", app, err)
		}
		c.pinPlacement(cm, app, blob)
		cm.mu.Lock()
		cm.placements[app] = p
		cm.mu.Unlock()
		rep.Republished = true
	}

	// Version-scoped GC: with the placement settled, every live node drops
	// replicas of this app that are older than the published version, or at
	// the published version but no longer assigned there. Replicas *newer*
	// than published belong to an in-flight save and are kept.
	for _, nid := range c.Ring.LiveIDs() {
		if m := c.managers[nid]; m != nil {
			stale, orphans := m.GCShards(app, p)
			rep.GCStale += stale
			rep.GCOrphans += orphans
		}
	}
	return rep, nil
}

// pinCopies is how many nodes around the ground-truth root receive a
// direct copy of a republished placement.
const pinCopies = 3

// pinPlacement direct-stores an already-published placement blob on the
// live nodes closest to its KV key — the ground-truth root and its
// successors. The routed Put that preceded it was delivered by the
// writer's own routing view, which right after churn can name the wrong
// root; without the pin the fresh record would sit where no converged
// reader ever looks, and the stale copy would win every later lookup.
func (c *Cluster) pinPlacement(from *Manager, app string, blob []byte) {
	key := placementKVKey(app)
	for i, nid := range c.Ring.SortedLiveByDistance(id.HashKey(key)) {
		if i >= pinCopies {
			return
		}
		_ = c.Ring.Node(from.node.ID()).StoreDirect(nid, key, blob)
	}
}

// hasShardVersion reports whether the manager on nid stores a replica of
// (app, index) at exactly version v.
func (c *Cluster) hasShardVersion(nid id.ID, app string, index int, v state.Version) bool {
	m := c.managers[nid]
	if m == nil {
		return false
	}
	return m.hasShardAt(app, index, v)
}

// ReplicaHealth reports, for every shard index of the app's published
// placement, how many assigned replicas are currently live and holding
// the shard. Tests use it to assert full replication after churn.
func (c *Cluster) ReplicaHealth(app string) (map[int]int, shard.Placement, error) {
	anyNode, err := c.Ring.AnyLive()
	if err != nil {
		return nil, shard.Placement{}, err
	}
	p, err := c.managers[anyNode.ID()].LookupPlacement(app)
	if err != nil {
		return nil, shard.Placement{}, err
	}
	health := make(map[int]int, p.M)
	for i := 0; i < p.M; i++ {
		for j := 0; j < p.R; j++ {
			nid, ok := p.Loc[shard.Key{App: app, Index: i, Replica: j}]
			if ok && c.Ring.Net.Alive(nid) && c.hasShardVersion(nid, app, i, p.Version) {
				health[i]++
			}
		}
	}
	return health, p, nil
}
