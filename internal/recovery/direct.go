package recovery

import (
	"fmt"
	"sort"

	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/shard"
	"sr3/internal/state"
)

// RecoverDirect rebuilds app's state on this manager as bytes: it looks
// the published placement up, hands it to RecoverPlacement and joins the
// view into Result.Snapshot. It is the one place a recovery joins its
// shards — every other caller restores from the view itself
// (Store.RestoreView) — and serves harnesses that compare the recovered
// bytes, such as the TCP data-plane benchmark.
func (m *Manager) RecoverDirect(app string, mech Mechanism, opts Options) (Result, error) {
	p, err := m.LookupPlacement(app)
	if err != nil {
		return Result{}, fmt.Errorf("recover %q: %w", app, err)
	}
	res, v, err := m.RecoverPlacement(p, mech, opts)
	if err != nil {
		return Result{}, err
	}
	res.Snapshot = v.Join()
	v.Release()
	return res, nil
}

// RecoverPlacement rebuilds the state p describes on this manager with the
// given mechanism: provider stages are planned from the placement and the
// overlay's liveness alone, the mechanism's executor collects into an
// assembler, and the failover ladder covers whatever the plan could not
// know (a holder that died since, or lost its replica). The state is
// returned as a view of the shard bodies as they arrived — replicas held
// here pinned, fetched and collected bodies unreleased — in index order;
// the caller restores from it and releases it. A recovery that fails
// releases everything it kept. With a tracer in opts the run records plan,
// fetch/collect and merge spans under opts.TraceParent.
func (m *Manager) RecoverPlacement(p shard.Placement, mech Mechanism, opts Options) (Result, state.View, error) {
	plan := opts.Tracer.StartSpan(opts.TraceParent, obs.PhasePlan)
	alive := func(h id.ID, _ int) bool { return m.node.PeerAlive(h) }
	stages, err := planStages(p, allIndices(p), m.node.ID(), alive, m.isDegraded)
	if err != nil {
		plan.EndErr(err)
		return Result{}, state.View{}, fmt.Errorf("recover %q: %w", p.App, err)
	}
	plan.SetStr("replacement", m.node.ID().Short())
	plan.SetInt("providers", int64(len(stages)))
	plan.End()

	oc := newOutcomeRecorder()
	a := newAssembler(p)
	switch mech {
	case Star:
		err = m.collectStar(p, opts, oc, a)
	case Line:
		err = m.collectLine(stages, p, opts, oc, a)
	case Tree:
		err = m.collectTree(stages, 1<<clampBit(opts.TreeFanoutBit), p, opts, oc, a)
	default:
		return Result{}, state.View{}, fmt.Errorf("recover %q: %d: %w", p.App, mech, ErrBadMechanism)
	}
	var v state.View
	if err == nil {
		v, err = a.view()
	}
	if err != nil {
		a.release()
		return Result{}, state.View{}, fmt.Errorf("recover %q (%s): %w", p.App, mech, err)
	}
	// This manager now stands in for the state's owner: p's version is the
	// published one its pushes must tell holders to keep.
	m.mu.Lock()
	if last, ok := m.placements[p.App]; !ok || p.Supersedes(last) {
		m.placements[p.App] = p
	}
	m.mu.Unlock()
	return Result{
		App:         p.App,
		Mechanism:   mech,
		Replacement: m.node.ID(),
		Version:     p.Version,
		Providers:   len(stages),
		ShardsMoved: a.merged(),
		Outcome:     oc.snapshot(),
	}, v, nil
}

// allIndices lists p's shard indices, ascending.
func allIndices(p shard.Placement) []int {
	all := make([]int, p.M)
	for i := range all {
		all[i] = i
	}
	return all
}

// indexLen is the byte length of shard index i on p's split grid.
func indexLen(p shard.Placement, i int) int {
	n := p.TotalLen / p.M
	if i < p.TotalLen%p.M {
		n++
	}
	return n
}

// planStages is the one provider planner, shared by the executors, the
// line replans and the timed plans: each index in indices (ascending) goes
// to the replica holder ok admits that carries the fewest bytes so far —
// ties in replica order, a degraded holder only when no healthy one is
// left — and the indices are grouped by holder, farthest from the
// replacement first, so line chains end next to it (Fig 4). Whether a
// holder still stores its replica is not planning's business: a fetch
// that comes back empty fails over to the next replica.
func planStages(p shard.Placement, indices []int, replacement id.ID, ok func(h id.ID, index int) bool, degraded func(id.ID) bool) ([]stage, error) {
	load := make(map[id.ID]int)
	byHolder := make(map[id.ID][]int)
	for _, i := range indices {
		var best [2]id.ID // by tier: healthy, degraded
		var have [2]bool
		for _, h := range p.NodesForIndex(i) {
			if !ok(h, i) {
				continue
			}
			tier := 0
			if degraded != nil && degraded(h) {
				tier = 1
			}
			if !have[tier] || load[h] < load[best[tier]] {
				best[tier], have[tier] = h, true
			}
		}
		tier := 0
		if !have[0] {
			tier = 1
		}
		if !have[tier] {
			return nil, fmt.Errorf("shard index %d: %w", i, ErrShardLost)
		}
		load[best[tier]] += indexLen(p, i)
		byHolder[best[tier]] = append(byHolder[best[tier]], i)
	}
	stages := make([]stage, 0, len(byHolder))
	for h, idx := range byHolder {
		stages = append(stages, stage{Node: h, Indices: idx})
	}
	sort.Slice(stages, func(i, j int) bool {
		di := id.Distance(stages[i].Node, replacement)
		dj := id.Distance(stages[j].Node, replacement)
		if cmp := di.Cmp(dj); cmp != 0 {
			return cmp > 0 // farthest first
		}
		return stages[i].Node.Less(stages[j].Node)
	})
	return stages, nil
}
