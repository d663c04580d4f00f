// Degraded-aware routing: the recovery plane's answer to gray failures.
// A node the supervisor has marked degraded is slow-but-alive — killing
// it would trade a slowdown for a full recovery, but routing recovery
// traffic *through* it serializes the whole collection behind its
// inflated service time. The cluster therefore keeps a degraded set
// (fed by the detector's StateDegraded transitions via the supervisor)
// and the mechanism executors route around members: planning prefers
// healthy replica holders, star fetches demote degraded replicas to
// last resort, and tree collection excises degraded interior stages
// from the forest so their shard indices fall to direct fetches (the
// subtree → direct-fetch rung) instead of stalling a whole subtree.
package recovery

import (
	"sort"

	"sr3/internal/id"
)

// MarkDegraded adds a node to the cluster's degraded set. Recovery
// planning and failover routing deprioritize members until cleared.
func (c *Cluster) MarkDegraded(nid id.ID) {
	c.degradedMu.Lock()
	defer c.degradedMu.Unlock()
	c.degraded[nid] = true
}

// ClearDegraded removes a node from the degraded set (the supervisor
// calls this when the detector reports the peer's RTT recovered, or
// after a kill verdict supersedes the degradation).
func (c *Cluster) ClearDegraded(nid id.ID) {
	c.degradedMu.Lock()
	defer c.degradedMu.Unlock()
	delete(c.degraded, nid)
}

// IsDegraded reports whether the node is currently marked degraded.
func (c *Cluster) IsDegraded(nid id.ID) bool {
	c.degradedMu.RLock()
	defer c.degradedMu.RUnlock()
	return c.degraded[nid]
}

// DegradedIDs returns the current degraded set (for dashboards/tests).
func (c *Cluster) DegradedIDs() []id.ID {
	c.degradedMu.RLock()
	defer c.degradedMu.RUnlock()
	out := make([]id.ID, 0, len(c.degraded))
	for nid := range c.degraded {
		out = append(out, nid)
	}
	return out
}

// SetDegradedCheck installs the predicate the mechanism executors
// consult when ordering replica holders. NewCluster wires it to
// Cluster.IsDegraded; standalone managers (the sr3node daemon, the
// TCP-transport tests) leave it nil, which disables degraded routing.
func (m *Manager) SetDegradedCheck(f func(id.ID) bool) {
	if f == nil {
		m.slowCheck.Store(nil)
		return
	}
	m.slowCheck.Store(&f)
}

// isDegraded consults the installed predicate (false when none is set).
func (m *Manager) isDegraded(nid id.ID) bool {
	f := m.slowCheck.Load()
	return f != nil && (*f)(nid)
}

// demoteDegraded stable-reorders replica holders into the star try order:
// healthy ones first, degraded ones as a later resort, and holders the
// overlay reports unreachable last of all — on a real network each of
// those costs a dial timeout, not an in-process error. Returns the input
// slice untouched when it is already in order (the common,
// allocation-free case).
func (m *Manager) demoteDegraded(holders []id.ID) []id.ID {
	tier := func(h id.ID) int {
		switch {
		case h != m.node.ID() && !m.node.PeerAlive(h):
			return 2
		case m.isDegraded(h):
			return 1
		}
		return 0
	}
	if sort.SliceIsSorted(holders, func(i, j int) bool { return tier(holders[i]) < tier(holders[j]) }) {
		return holders
	}
	out := append([]id.ID(nil), holders...)
	sort.SliceStable(out, func(i, j int) bool { return tier(out[i]) < tier(out[j]) })
	return out
}

// splitDegraded partitions collection stages into healthy and degraded
// ones. Tree collection builds its forest from the healthy set only;
// the degraded stages' indices fall to the star ladder as direct
// fetches, so a slow provider delays only its own shards, never a
// subtree routed through it.
func (m *Manager) splitDegraded(stages []stage) (healthy, slow []stage) {
	f := m.slowCheck.Load()
	if f == nil {
		return stages, nil
	}
	check := *f
	for _, st := range stages {
		if check(st.Node) {
			slow = append(slow, st)
			continue
		}
		healthy = append(healthy, st)
	}
	if len(slow) == 0 {
		return stages, nil
	}
	return healthy, slow
}
