package recovery

import (
	"fmt"

	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/shard"
	"sr3/internal/simnet"
	"sr3/internal/state"
)

// stage is one chain/tree position: a provider node and the shard indices
// it contributes.
type stage struct {
	Node    id.ID
	Indices []int
}

// lineCollectMsg travels down the provider chain accumulating shards
// (paper Fig 4: N3 uploads s2,0 to N0, which merges s1,0 and forwards...).
// Acc accumulates shard *metadata*; the matching data bodies travel as
// length-prefixed frames in the message's raw byte body (frame i ↔
// Acc[i]), so intermediate stages forward bytes without decoding them and
// serializing transports stream them in chunks.
type lineCollectMsg struct {
	App string
	// Version is the placement's: stages contribute replicas of exactly
	// this version, never a newer half-pushed one they also hold.
	Version state.Version
	Chain   []stage // remaining stages, first is the recipient
	Acc     []shard.Shard
}

// collectReply carries a collection result: data-free shard metadata in
// Shards, the matching data frames in the reply message's raw body
// (decode with DecodeShardBatch).
type collectReply struct {
	Shards []shard.Shard
	// Dead lists providers observed unreachable during the collection,
	// so the replacement's replan can route around them. The replacement
	// derives which shard indices are still missing from Shards itself.
	Dead []id.ID
}

// handleLineCollect runs at each chain stage: contribute local shards,
// then forward the accumulated set to the next stage; the final stage
// returns the full set, which unwinds to the replacement. A stage copies
// nothing: what it sends on is the body it received followed by its own
// replicas, lent pinned as segments (as a fetch reply lends them), and a
// deeper stage's reply is passed through untouched — its raw body flows
// from socket to socket without this stage ever decoding the shard data.
// When the next stage is dead, the partial accumulation unwinds instead
// (with the dead node reported), and the replacement replans around the
// loss.
func (m *Manager) handleLineCollect(_ id.ID, msg simnet.Message) (simnet.Message, error) {
	req, ok := msg.Payload.(*lineCollectMsg)
	if !ok {
		return simnet.Message{}, fmt.Errorf("recovery: bad line payload %T", msg.Payload)
	}
	if len(req.Chain) == 0 || req.Chain[0].Node != m.node.ID() {
		return simnet.Message{}, fmt.Errorf("%w: line chain at %s", ErrMisrouted, m.node.ID().Short())
	}
	// An inbound trace context opens a per-stage PhaseCollect span, so the
	// coordinator's trace shows where time went down the chain. Untraced
	// messages (TraceID 0) open nothing.
	fwdCtx := obs.SpanContext{Trace: msg.TraceID, Span: msg.SpanID}
	var sp *obs.Span
	if fwdCtx.Valid() {
		sp = m.getTracer().StartSpan(fwdCtx, obs.PhaseCollect)
		sp.SetStr("node", m.node.ID().Short())
		sp.SetInt("indices", int64(len(req.Chain[0].Indices)))
		if c := sp.Ctx(); c.Valid() {
			fwdCtx = c
		}
	}
	defer sp.End()
	// The received body is kept until what lends it is done with it.
	raw, releaseRaw := msg.TakeRaw()
	local, unpin := m.heldShards(req.App, req.Chain[0].Indices, req.Version)
	own, segs, size := shardBatchSegs(local, nil, [][]byte{raw})
	size += len(raw)
	// The metas may alias the sender's memory (in-process transport):
	// appending must copy, not scribble.
	metas := append(req.Acc[:len(req.Acc):len(req.Acc)], own...)
	done := func() {
		unpin()
		if releaseRaw != nil {
			releaseRaw()
		}
	}
	lend := func(dead []id.ID) simnet.Message {
		reply := simnet.Message{Kind: kindAck, Size: msgHeader + size,
			Payload: &collectReply{Shards: metas, Dead: dead}, RawSegs: segs}
		reply.SetFree(done)
		return reply
	}
	rest := req.Chain[1:]
	if len(rest) == 0 {
		return lend(nil), nil
	}
	fwd := &lineCollectMsg{App: req.App, Version: req.Version, Chain: rest, Acc: metas}
	resp, err := m.node.Send(rest[0].Node, simnet.Message{
		Kind:    kindLineCollect,
		Size:    msgHeader + size,
		Payload: fwd,
		RawSegs: segs,
		TraceID: fwdCtx.Trace,
		SpanID:  fwdCtx.Span,
	})
	if err != nil {
		// Dead stage: unwind what we have; the replacement resumes with
		// these shards and replans the remainder around the dead node.
		return lend([]id.ID{rest[0].Node}), nil
	}
	done()
	return resp, nil
}

// treeNode describes a subtree of providers for tree collection.
type treeNode struct {
	Stage    stage
	Children []*treeNode
}

type treeCollectMsg struct {
	App     string
	Version state.Version // as in lineCollectMsg
	Tree    *treeNode     // rooted at the recipient
}

// handleTreeCollect runs at each tree member: collect children's shard
// sets (each child gathers its own subtree), merge with local shards, and
// return the union to the parent (paper Fig 5/6: sub-shards recombined
// up the spanning tree). Nothing is copied: the reply lends this member's
// replicas, pinned, and then every child's reply body as segments, each
// released once the reply is on the wire. A dead child drops its whole
// subtree from the union (the child's node is reported dead); the
// replacement degrades those sub-shards to direct star-style fetches.
func (m *Manager) handleTreeCollect(_ id.ID, msg simnet.Message) (simnet.Message, error) {
	req, ok := msg.Payload.(*treeCollectMsg)
	if !ok {
		return simnet.Message{}, fmt.Errorf("recovery: bad tree payload %T", msg.Payload)
	}
	if req.Tree == nil || req.Tree.Stage.Node != m.node.ID() {
		return simnet.Message{}, fmt.Errorf("%w: tree collect at %s", ErrMisrouted, m.node.ID().Short())
	}
	// As in handleLineCollect: a traced request opens a per-member
	// PhaseCollect span, and children parent on it (the trace mirrors the
	// collection tree's shape).
	fwdCtx := obs.SpanContext{Trace: msg.TraceID, Span: msg.SpanID}
	var sp *obs.Span
	if fwdCtx.Valid() {
		sp = m.getTracer().StartSpan(fwdCtx, obs.PhaseCollect)
		sp.SetStr("node", m.node.ID().Short())
		sp.SetInt("indices", int64(len(req.Tree.Stage.Indices)))
		if c := sp.Ctx(); c.Valid() {
			fwdCtx = c
		}
	}
	defer sp.End()
	local, unpin := m.heldShards(req.App, req.Tree.Stage.Indices, req.Version)
	metas, segs, size := shardBatchSegs(local, nil, nil)
	var children []simnet.Message // the replies whose bodies segs lends
	done := func() {
		unpin()
		for i := range children {
			children[i].ReleaseRaw()
		}
	}
	var dead []id.ID
	for _, child := range req.Tree.Children {
		resp, err := m.node.Send(child.Stage.Node, simnet.Message{
			Kind:    kindTreeCollect,
			Size:    msgHeader + 64,
			Payload: &treeCollectMsg{App: req.App, Version: req.Version, Tree: child},
			TraceID: fwdCtx.Trace,
			SpanID:  fwdCtx.Span,
		})
		if err != nil {
			dead = append(dead, child.Stage.Node)
			continue
		}
		reply, ok := resp.Payload.(*collectReply)
		if !ok {
			resp.ReleaseRaw()
			done()
			return simnet.Message{}, fmt.Errorf("recovery: bad tree reply %T", resp.Payload)
		}
		metas = append(metas, reply.Shards...)
		segs = append(segs, resp.Raw)
		size += len(resp.Raw)
		children = append(children, resp)
		dead = append(dead, reply.Dead...)
	}
	out := simnet.Message{
		Kind:    kindAck,
		Size:    msgHeader + size,
		Payload: &collectReply{Shards: metas, Dead: dead},
		RawSegs: segs,
	}
	out.SetFree(done)
	return out, nil
}

// buildTree arranges stages into a balanced fanout-ary tree (BFS order)
// and returns its root.
func buildTree(stages []stage, fanout int) *treeNode {
	if len(stages) == 0 {
		return nil
	}
	if fanout < 1 {
		fanout = 1
	}
	nodes := make([]*treeNode, len(stages))
	for i, st := range stages {
		nodes[i] = &treeNode{Stage: st}
	}
	for i := 1; i < len(nodes); i++ {
		parent := nodes[(i-1)/fanout]
		parent.Children = append(parent.Children, nodes[i])
	}
	return nodes[0]
}

// buildForest partitions stages into up to fanout contiguous groups and
// builds a balanced subtree over each. The groups are the units the
// replacement fans out to concurrently, so one subtree's reply is merged
// into the snapshot while the others are still collecting.
func buildForest(stages []stage, fanout int) []*treeNode {
	if len(stages) == 0 {
		return nil
	}
	if fanout < 1 {
		fanout = 1
	}
	groups := fanout
	if groups > len(stages) {
		groups = len(stages)
	}
	out := make([]*treeNode, 0, groups)
	base, rem, off := len(stages)/groups, len(stages)%groups, 0
	for g := 0; g < groups; g++ {
		n := base
		if g < rem {
			n++
		}
		out = append(out, buildTree(stages[off:off+n], fanout))
		off += n
	}
	return out
}

// treeDepth returns the depth of the tree (root = 1).
func treeDepth(t *treeNode) int {
	if t == nil {
		return 0
	}
	max := 0
	for _, c := range t.Children {
		if d := treeDepth(c); d > max {
			max = d
		}
	}
	return max + 1
}
