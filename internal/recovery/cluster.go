package recovery

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/shard"
	"sr3/internal/simnet"
	"sr3/internal/state"
)

// Cluster wires a Manager onto every node of a DHT ring and coordinates
// save and recovery across them. It is the in-process equivalent of an
// SR3 deployment.
type Cluster struct {
	Ring     *dht.Ring
	managers map[id.ID]*Manager
	tracer   *obs.Tracer

	// degraded is the gray-failure set: nodes known slow-but-alive.
	// Recovery planning routes around members instead of through them.
	degradedMu sync.RWMutex
	degraded   map[id.ID]bool
}

// NewCluster attaches SR3 managers to all ring nodes.
func NewCluster(ring *dht.Ring) *Cluster {
	c := &Cluster{
		Ring:     ring,
		managers: make(map[id.ID]*Manager, ring.Size()),
		degraded: make(map[id.ID]bool),
	}
	for _, nid := range ring.IDs() {
		m := NewManager(ring.Node(nid))
		m.SetDegradedCheck(c.IsDegraded)
		c.managers[nid] = m
	}
	return c
}

// Manager returns the SR3 agent on one node.
func (c *Cluster) Manager(nid id.ID) *Manager { return c.managers[nid] }

// SetTracer installs a tracer on the cluster and every manager, so
// handler-side collect spans on provider nodes land in the same trace as
// the coordinator's. Call during setup, before recoveries run.
func (c *Cluster) SetTracer(tr *obs.Tracer) {
	c.tracer = tr
	for _, m := range c.managers {
		m.SetTracer(tr)
	}
}

// Result reports one completed recovery.
type Result struct {
	App         string
	Mechanism   Mechanism
	Replacement id.ID
	// Snapshot is the recovered state as bytes, filled by RecoverDirect
	// only: every other recovery lends the state as a view.
	Snapshot    []byte
	Version     state.Version
	Providers   int
	ShardsMoved int
	// Outcome reports how the recovery weathered provider faults.
	Outcome Outcome
}

// outcomeRecorder accumulates an Outcome across the concurrent parts of
// one recovery.
type outcomeRecorder struct {
	mu   sync.Mutex
	o    Outcome
	dead map[id.ID]bool
}

func newOutcomeRecorder() *outcomeRecorder {
	return &outcomeRecorder{dead: make(map[id.ID]bool)}
}

// attempt counts one collection pass or retry wave.
func (r *outcomeRecorder) attempt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.o.Attempts++
}

// failover counts n shard fetches redirected after a provider loss,
// carrying bytes of re-fetched data.
func (r *outcomeRecorder) failover(n, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.o.Failovers += n
	r.o.RetriedBytes += bytes
}

// deadNode records one provider observed unreachable.
func (r *outcomeRecorder) deadNode(nid id.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.dead[nid] {
		r.dead[nid] = true
		r.o.DeadProviders++
	}
}

// degrade records the mechanism falling down the failover ladder.
func (r *outcomeRecorder) degrade(to Mechanism) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.o.Degraded = true
	r.o.DegradedTo = to
}

func (r *outcomeRecorder) snapshot() Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.o
}

// Recover rebuilds the state of app after its owner failed, at the
// replacement — the live node closest to the failed owner's ID, mirroring
// Fig 3's N6 replacing N5 — and lends it as RecoverPlacement does: a view
// of the shard bodies as they arrived, which the caller restores from and
// then releases. Mechanism 0 takes the mechanism and options §3.7 selects
// for the placement's state size, keeping opts' tracing. When a tracer is
// set (opts.Tracer or SetTracer), the run is wrapped in a PhaseRecover
// span with plan/fetch/collect/merge children.
func (c *Cluster) Recover(app string, mech Mechanism, opts Options) (Result, state.View, error) {
	if opts.Tracer == nil {
		opts.Tracer = c.tracer
	}
	sp := opts.Tracer.StartSpan(opts.TraceParent, obs.PhaseRecover)
	sp.SetStr("app", app)
	opts.TraceParent = sp.Ctx()
	res, v, err := c.recover(app, mech, opts)
	if err == nil {
		mech = res.Mechanism
	}
	sp.SetStr("mech", mech.String())
	sp.SetInt("bytes", int64(v.Len))
	sp.EndErr(err)
	return res, v, err
}

func (c *Cluster) recover(app string, mech Mechanism, opts Options) (Result, state.View, error) {
	anyNode, err := c.Ring.AnyLive()
	if err != nil {
		return Result{}, state.View{}, fmt.Errorf("recover %q: %w", app, err)
	}
	placement, err := c.managers[anyNode.ID()].LookupPlacement(app)
	if err != nil {
		return Result{}, state.View{}, fmt.Errorf("recover %q: %w", app, err)
	}
	replacement, ok := c.pickReplacement(placement.Owner)
	if !ok {
		return Result{}, state.View{}, fmt.Errorf("recover %q: %w", app, ErrNoReplacement)
	}
	if mech == 0 {
		d := Select(Requirements{StateBytes: int64(placement.TotalLen)})
		d.Options.Tracer, d.Options.TraceParent = opts.Tracer, opts.TraceParent
		mech, opts = d.Mechanism, d.Options
	}
	return c.managers[replacement].RecoverPlacement(placement, mech, opts)
}

// pickReplacement returns the live node closest to the failed owner,
// skipping degraded candidates when a healthy one exists — rebuilding
// state *onto* a slow node would bake the gray failure into the
// recovered placement.
func (c *Cluster) pickReplacement(owner id.ID) (id.ID, bool) {
	if c.Ring.Net.Alive(owner) {
		return owner, true // owner restarted: recover in place
	}
	nid, ok := c.Ring.ClosestLive(owner)
	if !ok {
		return nid, false
	}
	if c.IsDegraded(nid) {
		for _, cand := range c.Ring.SortedLiveByDistance(owner) {
			if !c.IsDegraded(cand) {
				return cand, true
			}
		}
	}
	return nid, true
}

func clampBit(b int) int {
	if b < 0 {
		return 0
	}
	if b > 8 {
		return 8
	}
	return b
}

// --- real mechanism executors (run on the replacement's manager) ---

// collectStar fetches one live replica of every still-missing shard index
// directly from its holders, merging each into the assembler as it lands
// (paper §3.4). Fetches run under a bounded worker pool
// (fetchConcurrency), so a wide m×r
// placement pulls many providers concurrently without unbounded fan-out.
// With opts.Speculate, two replicas are requested concurrently and the
// first success wins. Provider losses fail over to the remaining replicas
// with bounded retries and exponential backoff.
func (m *Manager) collectStar(p shard.Placement, opts Options, oc *outcomeRecorder, a *assembler) error {
	oc.attempt()
	missing := a.missing()
	sem := make(chan struct{}, fetchConcurrency)
	errs := make([]error, len(missing))
	var wg sync.WaitGroup
	for k, idx := range missing {
		wg.Add(1)
		sem <- struct{}{}
		go func(k, idx int) {
			defer wg.Done()
			defer func() { <-sem }()
			_, errs[k] = m.fetchIndexRetryInto(a, idx, p, opts, oc)
		}(k, idx)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return fmt.Errorf("star fetch index %d: %w", missing[k], err)
		}
	}
	return nil
}

// fetchIndexRetryInto retrieves one replica of a shard index and merges
// it into the assembler, returning the bytes merged (0 when the index
// was already assembled by a concurrent path). Holders are tried in
// replica order; a full pass with no success is retried up to
// opts.FailoverRetries times with exponentially growing backoff (so a
// transiently crashed provider can come back). With opts.Speculate the
// first two replicas are raced before falling back to the ordered passes.
// Each index's retrieval is one PhaseFetch span (with its merge as a
// PhaseMerge child).
func (m *Manager) fetchIndexRetryInto(a *assembler, index int, p shard.Placement, opts Options, oc *outcomeRecorder) (int, error) {
	sp := opts.Tracer.StartSpan(opts.TraceParent, obs.PhaseFetch)
	sp.SetInt("index", int64(index))
	n, err := m.fetchIndexRetry(a, index, p, opts, oc, sp.Ctx())
	sp.SetInt("bytes", int64(n))
	sp.EndErr(err)
	return n, err
}

func (m *Manager) fetchIndexRetry(a *assembler, index int, p shard.Placement, opts Options, oc *outcomeRecorder, tc obs.SpanContext) (int, error) {
	// Replica demotion: degraded holders move to the back of the try
	// order and unreachable ones behind them, so a slow replica is
	// consulted only after healthy ones fail and a dead one last of all.
	holders := m.demoteDegraded(p.NodesForIndex(index))
	if opts.Speculate && len(holders) > 1 {
		type res struct {
			n  int
			ok bool
		}
		ch := make(chan res, 2)
		for _, h := range holders[:2] {
			go func(h id.ID) {
				n, err := m.fetchInto(a, h, index, opts.Tracer, tc)
				ch <- res{n, err == nil}
			}(h)
		}
		for i := 0; i < 2; i++ {
			if r := <-ch; r.ok {
				return r.n, nil
			}
		}
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	for round := 0; ; round++ {
		for hi, h := range holders {
			n, err := m.fetchInto(a, h, index, opts.Tracer, tc)
			if err == nil {
				if round > 0 || hi > 0 {
					oc.failover(1, n)
				}
				opts.RetryBudget.Earn()
				return n, nil
			}
			// A shard that arrived but failed validation counts like a
			// missing replica, not a dead node.
			if !errors.Is(err, ErrShardLost) && !errors.Is(err, errShardMismatch) {
				oc.deadNode(h)
			}
		}
		if round >= opts.FailoverRetries {
			return 0, fmt.Errorf("shard index %d: %w", index, ErrReplicasExhausted)
		}
		// Every extra pass must be funded by the retry budget; the first
		// pass above was free. Suppression reads as exhaustion to the
		// ladder, with ErrRetryBudget attached for the post-mortem.
		if !opts.RetryBudget.Allow() {
			return 0, fmt.Errorf("shard index %d after %d rounds: %w: %w",
				index, round+1, ErrReplicasExhausted, ErrRetryBudget)
		}
		oc.attempt()
		time.Sleep(backoff)
		backoff *= 2
	}
}

// fetchReplica asks holder for one replica of (app, index) at version v.
// Over a serializing transport the shard body arrives as chunked frames
// in a pooled buffer that the returned Data aliases: call release once
// the bytes are merged or copied. tc stamps the request so remote stall
// spans parent on the caller's fetch.
func (m *Manager) fetchReplica(holder id.ID, app string, index int, v state.Version, tc obs.SpanContext) (s shard.Shard, release func(), err error) {
	if holder == m.node.ID() {
		ss, unpin := m.heldShards(app, []int{index}, v)
		if len(ss) == 0 {
			unpin()
			return shard.Shard{}, nil, ErrShardLost
		}
		return ss[0], unpin, nil
	}
	resp, err := m.node.Send(holder, simnet.Message{
		Kind:    kindFetchIndex,
		Size:    msgHeader + len(app) + 8,
		Payload: &fetchIndexRequest{App: app, Index: index, Version: v},
		TraceID: tc.Trace,
		SpanID:  tc.Span,
	})
	if err != nil {
		return shard.Shard{}, nil, err
	}
	reply, ok := resp.Payload.(*fetchReply)
	switch {
	case !ok:
		err = fmt.Errorf("recovery: bad fetch reply %T", resp.Payload)
	case !reply.Found:
		err = ErrShardLost
	}
	if err != nil {
		resp.ReleaseRaw()
		return shard.Shard{}, nil, err
	}
	s = reply.Shard
	s.Data = resp.Raw
	return s, resp.ReleaseRaw, nil
}

// fetchInto retrieves one replica of the assembler's state at index from
// holder and hands it to the assembler as it arrived — the recovery hot
// path: the assembler keeps the body it validated, which its view lends the
// store, so no copy of the shard is ever made.
func (m *Manager) fetchInto(a *assembler, holder id.ID, index int, tr *obs.Tracer, tc obs.SpanContext) (int, error) {
	s, release, err := m.fetchReplica(holder, a.app, index, a.version, tc)
	if err != nil {
		return 0, err
	}
	return mergeTraced(a, []shard.Shard{s}, release, tr, tc)
}

// mergeTraced hands one body's shards to the assembler (assembler.add)
// under a retroactive PhaseMerge span (recorded only when the fetch itself
// is traced, so untraced recoveries pay nothing).
func mergeTraced(a *assembler, shards []shard.Shard, release func(), tr *obs.Tracer, tc obs.SpanContext) (int, error) {
	if !tr.Enabled() || !tc.Valid() {
		return a.add(shards, release)
	}
	start := tr.Now()
	n, err := a.add(shards, release)
	tr.RecordSpan(tc, obs.PhaseMerge, start, tr.Now(), obs.Int("bytes", int64(n)), obs.Int("shards", int64(len(shards))))
	return n, err
}

// fetchFrom retrieves one replica of (app, index) at version v from
// holder with an owned Data copy — the repair path's donor fetch, which
// re-pushes the shard long after the transport buffer is released.
func (m *Manager) fetchFrom(holder id.ID, app string, index int, v state.Version) (shard.Shard, error) {
	s, release, err := m.fetchReplica(holder, app, index, v, obs.SpanContext{})
	if err != nil {
		return shard.Shard{}, err
	}
	defer release()
	s.Data = append([]byte(nil), s.Data...)
	return s, nil
}

// mergeLocal hands this node's own replicas for the given stages to the
// assembler, pinned until its view is released, and returns the stages that
// need the wire plus the bytes merged locally.
func (m *Manager) mergeLocal(a *assembler, stages []stage) (remote []stage, merged int) {
	remote = make([]stage, 0, len(stages))
	for _, st := range stages {
		if st.Node != m.node.ID() {
			remote = append(remote, st)
			continue
		}
		local, unpin := m.heldShards(a.app, st.Indices, a.version)
		// A mismatch just leaves the index missing; failover covers it.
		n, _ := a.add(local, unpin)
		merged += n
	}
	return remote, merged
}

// mergeCollect decodes one collect reply (metas + framed raw body) and
// hands its shards to the assembler, which keeps the reply's body while it
// keeps any of them; it returns the bytes merged. Individually mismatched
// shards are skipped — their indices stay missing and the failover ladder
// re-fetches them.
func mergeCollect(a *assembler, reply *collectReply, resp *simnet.Message, tr *obs.Tracer, parent obs.SpanContext) (int, error) {
	shards, err := DecodeShardBatch(reply.Shards, resp.Raw)
	if err != nil {
		resp.ReleaseRaw()
		return 0, err
	}
	n, _ := mergeTraced(a, shards, resp.ReleaseRaw, tr, parent)
	return n, nil
}

// segmentStages cuts a chain into up to depth contiguous sub-chains of
// near-equal length — the line executor's pipeline lanes.
func segmentStages(chain []stage, depth int) [][]stage {
	if len(chain) == 0 {
		return nil
	}
	if depth < 1 {
		depth = 1
	}
	if depth > len(chain) {
		depth = len(chain)
	}
	out := make([][]stage, 0, depth)
	base, rem, off := len(chain)/depth, len(chain)%depth, 0
	for i := 0; i < depth; i++ {
		n := base
		if i < rem {
			n++
		}
		out = append(out, chain[off:off+n])
		off += n
	}
	return out
}

// slot is one (holder, shard index) pairing of a placement.
type slot struct {
	node  id.ID
	index int
}

// collectLine runs the chain collection (paper §3.5), pipelined: the
// chain is cut into pipelineDepth segments whose sub-chains collect
// concurrently, so the replacement merges one segment's shards into the
// snapshot while the next segment's bytes are still in flight. When a
// stage dies mid-chain, the partial accumulation unwinds to the
// replacement, which re-plans the remaining indices over surviving
// replicas (avoiding observed-dead nodes, and holders that were reached
// but no longer store the index) and resumes — repeatedly, with backoff,
// until the state is whole or opts.FailoverRetries is spent; any
// remainder degrades to direct star-style fetches.
func (m *Manager) collectLine(stages []stage, p shard.Placement, opts Options, oc *outcomeRecorder, a *assembler) error {
	if len(stages) == 0 {
		return ErrShardLost
	}
	dead := make(map[id.ID]bool)
	lacks := make(map[slot]bool)
	// noteLacks records, for stages a collection reached, the indices they
	// were asked for and did not deliver.
	noteLacks := func(reached []stage) {
		for _, st := range reached {
			for _, i := range st.Indices {
				if !a.hasIndex(i) {
					lacks[slot{st.Node, i}] = true
				}
			}
		}
	}
	// pass runs one collection over stages — this node's own replicas
	// merge directly, the remote chain is cut into lanes sub-chains that
	// collect concurrently — and returns the bytes it gained.
	pass := func(stages []stage, lanes int) (int, error) {
		oc.attempt()
		chain, gained := m.mergeLocal(a, stages)
		for _, st := range stages {
			if st.Node == m.node.ID() {
				noteLacks([]stage{st})
			}
		}
		type segOut struct {
			resp simnet.Message
			seg  []stage
			err  error
		}
		segs := segmentStages(chain, lanes)
		ch := make(chan segOut, len(segs))
		for _, seg := range segs {
			go func(seg []stage) {
				resp, err := m.node.Send(seg[0].Node, simnet.Message{
					Kind:    kindLineCollect,
					Size:    msgHeader + 64,
					Payload: &lineCollectMsg{App: p.App, Version: p.Version, Chain: seg},
					TraceID: opts.TraceParent.Trace,
					SpanID:  opts.TraceParent.Span,
				})
				ch <- segOut{resp: resp, seg: seg, err: err}
			}(seg)
		}
		var failed error
		for range segs {
			o := <-ch
			if o.err != nil {
				oc.deadNode(o.seg[0].Node)
				dead[o.seg[0].Node] = true
				continue
			}
			reply, ok := o.resp.Payload.(*collectReply)
			if !ok {
				o.resp.ReleaseRaw()
				failed = fmt.Errorf("recovery: bad line reply %T", o.resp.Payload)
				continue
			}
			n, err := mergeCollect(a, reply, &o.resp, opts.Tracer, opts.TraceParent)
			if err != nil {
				failed = err
			}
			gained += n
			for _, d := range reply.Dead {
				oc.deadNode(d)
				dead[d] = true
			}
			// The chain was walked up to its first dead stage.
			reached := o.seg
			for k, st := range o.seg {
				if dead[st.Node] {
					reached = o.seg[:k]
					break
				}
			}
			noteLacks(reached)
		}
		return gained, failed
	}

	if _, err := pass(stages, pipelineDepth); err != nil {
		return err
	}
	missing := a.missing()
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	usable := func(h id.ID, i int) bool { return !dead[h] && !lacks[slot{h, i}] }
	for replan := 0; len(missing) > 0 && replan < opts.FailoverRetries; replan++ {
		next, err := planStages(p, missing, m.node.ID(), usable, m.isDegraded)
		if err != nil {
			break // some index has no candidate left: try star below
		}
		if !opts.RetryBudget.Allow() {
			break // budget suppressed the replan: leftovers go to the star ladder
		}
		time.Sleep(backoff)
		backoff *= 2
		gained, err := pass(next, 1)
		if err != nil {
			return err
		}
		still := a.missing()
		oc.failover(len(missing)-len(still), gained)
		missing = still
	}
	if len(missing) > 0 {
		// Ladder: finish the stragglers star-style, replica by replica.
		oc.degrade(Star)
		for _, idx := range missing {
			n, err := m.fetchIndexRetryInto(a, idx, p, opts, oc)
			if err != nil {
				return fmt.Errorf("line degraded to star, index %d: %w", idx, err)
			}
			oc.failover(1, n)
		}
	}
	return nil
}

// collectTree runs the spanning-tree collection (paper §3.6) with the
// given fan-out, as a forest: the providers are partitioned into up to
// fanout subtrees that collect concurrently, and each subtree's reply is
// merged into the snapshot while the others are still gathering. A dead
// subtree is dropped from the union by its parent; the replacement then
// degrades the missing sub-shards to direct star-style fetches of
// surviving replicas (the tree → star rung of the failover ladder).
func (m *Manager) collectTree(stages []stage, fanout int, p shard.Placement, opts Options, oc *outcomeRecorder, a *assembler) error {
	if len(stages) == 0 {
		return ErrShardLost
	}
	oc.attempt()
	remote, _ := m.mergeLocal(a, stages)
	// Subtree → direct fetch: degraded providers are excised from the
	// forest so no healthy subtree is chained behind a slow interior
	// node; their indices stay missing and fall to the star ladder below
	// (which itself demotes degraded replicas to last resort).
	if healthy, slow := m.splitDegraded(remote); len(slow) > 0 {
		remote = healthy
		oc.degrade(Star)
	}
	roots := buildForest(remote, fanout)
	type treeOut struct {
		resp simnet.Message
		root id.ID
		err  error
	}
	ch := make(chan treeOut, len(roots))
	for _, rt := range roots {
		go func(rt *treeNode) {
			resp, err := m.node.Send(rt.Stage.Node, simnet.Message{
				Kind:    kindTreeCollect,
				Size:    msgHeader + 64,
				Payload: &treeCollectMsg{App: p.App, Version: p.Version, Tree: rt},
				TraceID: opts.TraceParent.Trace,
				SpanID:  opts.TraceParent.Span,
			})
			ch <- treeOut{resp: resp, root: rt.Stage.Node, err: err}
		}(rt)
	}
	var failed error
	for range roots {
		o := <-ch
		if o.err != nil {
			oc.deadNode(o.root)
			continue
		}
		reply, ok := o.resp.Payload.(*collectReply)
		if !ok {
			o.resp.ReleaseRaw()
			failed = fmt.Errorf("recovery: bad tree reply %T", o.resp.Payload)
			continue
		}
		if _, err := mergeCollect(a, reply, &o.resp, opts.Tracer, opts.TraceParent); err != nil {
			failed = err
		}
		for _, d := range reply.Dead {
			oc.deadNode(d)
		}
	}
	if failed != nil {
		return failed
	}
	if missing := a.missing(); len(missing) > 0 {
		oc.degrade(Star)
		for _, idx := range missing {
			n, err := m.fetchIndexRetryInto(a, idx, p, opts, oc)
			if err != nil {
				return fmt.Errorf("tree degraded to star, index %d: %w", idx, err)
			}
			oc.failover(1, n)
		}
	}
	return nil
}

// RecoverAndReprotect completes the failure-handling lifecycle: the state
// is rebuilt at the replacement and at once re-sharded and re-scattered
// over the replacement's own leaf set from the recovered view's segments,
// so the application is protected against the next failure without
// waiting for its periodic save. The refreshed placement supersedes the
// old one in the DHT. The view is lent on as Recover lends it: the caller
// releases it.
func (c *Cluster) RecoverAndReprotect(app string, mech Mechanism, opts Options) (Result, state.View, error) {
	if opts.Tracer == nil {
		opts.Tracer = c.tracer
	}
	res, v, err := c.Recover(app, mech, opts)
	if err != nil {
		return Result{}, state.View{}, err
	}
	// The reprotect span is a sibling of the recover span under the
	// caller's parent (Recover traced its own copy of opts).
	rp := opts.Tracer.StartSpan(opts.TraceParent, obs.PhaseReprotect)
	rp.SetStr("app", app)
	err = c.reprotect(app, res.Replacement, v, opts.Tracer, rp.Ctx())
	rp.EndErr(err)
	if err != nil {
		v.Release()
		return Result{}, state.View{}, err
	}
	return res, v, nil
}

// reprotect re-saves the recovered view at the replacement under a
// PhaseSave span; SaveView keeps nothing of the view's segments.
func (c *Cluster) reprotect(app string, replacement id.ID, view state.View, tr *obs.Tracer, tc obs.SpanContext) error {
	anyNode, err := c.Ring.AnyLive()
	if err != nil {
		return fmt.Errorf("reprotect %q: %w", app, err)
	}
	old, err := c.managers[anyNode.ID()].LookupPlacement(app)
	if err != nil {
		return fmt.Errorf("reprotect %q: %w", app, err)
	}
	newMgr := c.managers[replacement]
	sp := tr.StartSpan(tc, obs.PhaseSave)
	sp.SetStr("app", app)
	sp.SetInt("bytes", int64(view.Len))
	_, err = newMgr.SaveView(app, view.Segs, old.M, old.R, newMgr.NextVersion(old.Version.Timestamp+1))
	sp.EndErr(err)
	if err != nil {
		return fmt.Errorf("reprotect %q: %w", app, err)
	}
	// The re-save's routed publish went through the replacement's routing
	// view, freshly disturbed by the failure — pin the new placement at
	// the ground-truth root so converged readers see it.
	if p, ok := newMgr.Placement(app); ok {
		if blob, err := EncodePlacement(p); err == nil {
			c.pinPlacement(newMgr, app, blob)
		}
	}
	return nil
}
