package recovery

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/shard"
	"sr3/internal/simnet"
	"sr3/internal/state"
)

// Message kinds served by the per-node Manager.
const (
	kindStoreBatch  = "sr3.shard.storeBatch"
	kindFetchIndex  = "sr3.shard.fetchIndex"
	kindLineCollect = "sr3.line.collect"
	kindTreeCollect = "sr3.tree.collect"
	kindAck         = "sr3.ack"
)

const msgHeader = 48

// placementKVKey is where a state's placement table lives in the DHT KV
// (replicated in the root's leaf set), so recovery still finds it when the
// owner died.
func placementKVKey(app string) string { return "sr3/placement/" + app }

// Overlay is what a Manager needs from the membership and messaging layer
// beneath it. *dht.Node is one (neighbours = the leaf set, KV = routed to
// the key's root and replicated in its leaf set); internal/cluster
// implements another over the seed's View for deployments with no ring.
type Overlay interface {
	ID() id.ID
	// LeafSet lists the nodes Save may place replicas on.
	LeafSet() []id.ID
	PeerAlive(id.ID) bool
	Send(to id.ID, msg simnet.Message) (simnet.Message, error)
	// Put and GetAll publish and read placement tables. GetAll returns
	// every reachable copy; no copy anywhere is dht.ErrNotFound or an
	// empty result, and any other error means the store could not be
	// asked — recovery must not mistake that for "never saved".
	Put(key string, value []byte) error
	GetAll(key string) ([][]byte, error)
	HandleDirect(kind string, f simnet.Handler)
}

var _ Overlay = (*dht.Node)(nil)

// Manager is the per-node SR3 agent: it stores shard replicas pushed by
// state owners, serves fetches, and executes its part of line/tree
// collection. One Manager is attached to every overlay node.
type Manager struct {
	node Overlay
	// tracer parents handler-side collect spans on the inbound message's
	// span context (atomic: handlers read it concurrently with SetTracer).
	tracer atomic.Pointer[obs.Tracer]
	// slowCheck reports whether a peer is marked degraded (slow-but-
	// alive); recovery routing deprioritizes such holders. Installed by
	// the owning Cluster; nil disables degraded routing.
	slowCheck atomic.Pointer[func(id.ID) bool]

	mu         sync.Mutex
	shards     map[string]*held
	placements map[string]shard.Placement
	recovered  map[string][]byte
	saveSeq    uint64
	// segScratch is the push segment list a save reuses from the last one.
	segScratch [][]byte
}

// held is one app's replicas on this node: the newest version seen plus
// the one it superseded (nil when none). A saver that dies mid-scatter
// leaves its newest version incomplete across the holders and never
// publishes a placement for it, so the published (previous) version must
// survive on every holder the partial push reached — it is dropped only at
// the next supersession. Fetch and collect requests name the version they
// want.
type held struct {
	cur, prev *replicaSet
}

// replicaSet is the replicas of one app held at one version, and the push
// bodies they alias. Dropping the set releases the bodies to the transport
// they were read from (each body's release, from simnet.Message.TakeRaw),
// which unmaps them — but only once no reply still reads them: a reply
// that lends a set's bytes pins it, and unpins once it is done with them.
type replicaSet struct {
	version state.Version
	shards  map[shard.Key]shard.Shard
	bodies  []func()
	pins    int
	dropped bool
}

func newSet(v state.Version) *replicaSet {
	return &replicaSet{version: v, shards: make(map[shard.Key]shard.Shard)}
}

// at returns the set held at exactly version v (nil when none).
func (h *held) at(v state.Version) *replicaSet {
	switch {
	case h == nil:
		return nil
	case v == h.cur.version:
		return h.cur
	case h.prev != nil && v == h.prev.version:
		return h.prev
	}
	return nil
}

// sets lists the retained sets, the newer first.
func (h *held) sets() []*replicaSet {
	if h.prev == nil {
		return []*replicaSet{h.cur}
	}
	return []*replicaSet{h.cur, h.prev}
}

// drop retires a set: its bodies are released now, or when the last reply
// reading them unpins it (caller holds m.mu).
func (s *replicaSet) drop() {
	if s == nil {
		return
	}
	s.dropped = true
	s.release()
}

// release hands a dropped, unpinned set's bodies back.
func (s *replicaSet) release() {
	if !s.dropped || s.pins > 0 {
		return
	}
	for _, f := range s.bodies {
		f()
	}
	clear(s.bodies)
	s.bodies = s.bodies[:0]
}

// NewManager attaches an SR3 manager to an overlay node.
func NewManager(n Overlay) *Manager {
	m := &Manager{
		node:       n,
		shards:     make(map[string]*held),
		placements: make(map[string]shard.Placement),
		recovered:  make(map[string][]byte),
	}
	n.HandleDirect(kindStoreBatch, m.handleStoreBatch)
	n.HandleDirect(kindFetchIndex, m.handleFetchIndex)
	n.HandleDirect(kindLineCollect, m.handleLineCollect)
	n.HandleDirect(kindTreeCollect, m.handleTreeCollect)
	return m
}

// SetTracer installs the tracer used by this node's collect handlers.
func (m *Manager) SetTracer(tr *obs.Tracer) { m.tracer.Store(tr) }

// getTracer returns the node's tracer (nil when tracing is off).
func (m *Manager) getTracer() *obs.Tracer { return m.tracer.Load() }

// ShardsHeld returns how many shard replicas this node stores per app,
// both retained versions counted.
func (m *Manager) ShardsHeld() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, len(m.shards))
	for app, h := range m.shards {
		for _, set := range h.sets() {
			out[app] += len(set.shards)
		}
	}
	return out
}

// ShardCount returns how many shard replicas this node stores.
func (m *Manager) ShardCount() int {
	n := 0
	for _, c := range m.ShardsHeld() {
		n += c
	}
	return n
}

// ShardBytes returns the bytes of shard replicas stored here, split by
// retained version: cur is every app's newest version, prev the one it
// superseded — zero on a node the successor's publication has reached.
func (m *Manager) ShardBytes() (cur, prev int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range m.shards {
		for _, s := range h.cur.shards {
			cur += len(s.Data)
		}
		if h.prev != nil {
			for _, s := range h.prev.shards {
				prev += len(s.Data)
			}
		}
	}
	return cur, prev
}

// Save splits a state snapshot into mShards shards, replicates each
// replicas times, and writes them to the owner's leaf set (paper §3.3
// Layer 2). All replicas bound for one holder travel as a single batched
// store — one round trip per holder, bodies framed in the message's raw
// byte body — and holders are written serially, matching the evaluation's
// fair-comparison setup for Fig 8c. The placement table is recorded
// locally and published through the overlay's KV so any node can recover
// the state later. Re-saving the version this manager published last
// bumps the table's Epoch, so the rewrite outranks every copy of the
// earlier table.
//
// Save borrows snapshot for the call and keeps nothing of it: it is
// SaveView of one segment.
func (m *Manager) Save(app string, snapshot []byte, mShards, replicas int, v state.Version) (shard.Placement, error) {
	return m.SaveView(app, [][]byte{snapshot}, mShards, replicas, v)
}

// SaveView is Save of a state lent in segments (a state.View's): the
// shards are byte ranges across them (shard.SplitView), each push hands
// the transport the ranges' own pieces as segments, and when SaveView
// returns nothing here refers to the segments any more — the caller may
// let the store change again. The owner stores none of its own slots:
// such a replica dies with the state it protects, and the placement still
// names the slot, so every other replica of that index is where the table
// says. Once the placement is published the owner drops whatever older
// replicas of the app it holds (as a holder of an earlier owner's saves).
func (m *Manager) SaveView(app string, segs [][]byte, mShards, replicas int, v state.Version) (shard.Placement, error) {
	self := m.node.ID()
	shards, err := shard.SplitView(app, self, segs, mShards, v)
	if err != nil {
		return shard.Placement{}, fmt.Errorf("save %q: %w", app, err)
	}
	reps, err := shard.Replicate(shards, replicas)
	if err != nil {
		return shard.Placement{}, fmt.Errorf("save %q: %w", app, err)
	}
	leaves := m.node.LeafSet()
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Less(leaves[j]) })
	placement, err := shard.Place(app, self, len(shards), replicas, v, shards[0].TotalLen, leaves)
	if err != nil {
		return shard.Placement{}, fmt.Errorf("save %q: %w", app, err)
	}
	byTarget := make(map[id.ID][]shard.Shard, len(leaves))
	for _, s := range reps {
		if t := placement.Loc[s.Key()]; t != self {
			byTarget[t] = append(byTarget[t], s)
		}
	}
	targets := make([]id.ID, 0, len(byTarget))
	for t := range byTarget {
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Less(targets[j]) })
	// One push at a time, one segment list for all of them, kept for the
	// next save (a concurrent save of another app makes its own).
	m.mu.Lock()
	scratch := m.segScratch
	m.segScratch = nil
	m.mu.Unlock()
	// A push holds distinct indices — disjoint ranges — so its frames are
	// at most a header and one piece past the segments per shard.
	if need := len(segs) + 2*len(reps); cap(scratch) < need {
		scratch = make([][]byte, 0, need+need/8)
	}
	var failed id.ID
	for _, target := range targets {
		if scratch, err = m.pushShardBatch(target, byTarget[target], segs, scratch); err != nil {
			failed = target
			break
		}
	}
	m.mu.Lock()
	m.segScratch = scratch
	m.mu.Unlock()
	if err != nil {
		return shard.Placement{}, fmt.Errorf("save %q to %s: %w: %v", app, failed.Short(), ErrSaveAborted, err)
	}

	// Churn guard: the leaf set may have changed while shards were being
	// pushed. Publishing a placement that points at departed nodes would
	// poison every future recovery of this state, so re-verify the
	// holders and abort cleanly instead.
	for _, holder := range placement.Holders() {
		if holder == self {
			continue
		}
		if !m.node.PeerAlive(holder) {
			return shard.Placement{}, fmt.Errorf("save %q: holder %s departed: %w", app, holder.Short(), ErrSaveAborted)
		}
	}

	if last, ok := m.Placement(app); ok && last.Version == v {
		placement.Epoch = last.Epoch + 1
	}
	blob, err := EncodePlacement(placement)
	if err != nil {
		return shard.Placement{}, fmt.Errorf("save %q: %w", app, err)
	}
	if err := m.node.Put(placementKVKey(app), blob); err != nil {
		return shard.Placement{}, fmt.Errorf("save %q placement: %w: %v", app, ErrSaveAborted, err)
	}
	// Recorded only once published: pushes tell holders which version
	// that is (storeBatchMsg.Published).
	m.mu.Lock()
	m.placements[app] = placement
	m.mu.Unlock()
	m.GCShards(app, placement)
	return placement, nil
}

// SaveTraced runs Save under a PhaseSave span parented on tc, recorded
// with tr (nil tr, or an invalid parent with no trace of its own wanted,
// degrade gracefully — the span machinery is nil-safe).
func (m *Manager) SaveTraced(app string, snapshot []byte, mShards, replicas int, v state.Version, tr *obs.Tracer, tc obs.SpanContext) (shard.Placement, error) {
	sp := tr.StartSpan(tc, obs.PhaseSave)
	sp.SetStr("app", app)
	sp.SetInt("bytes", int64(len(snapshot)))
	p, err := m.Save(app, snapshot, mShards, replicas, v)
	sp.EndErr(err)
	return p, err
}

// NextVersion mints a monotonically increasing version for this owner.
func (m *Manager) NextVersion(now int64) state.Version {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.saveSeq++
	return state.Version{Timestamp: now, Seq: m.saveSeq}
}

// pushShardBatch delivers a group of replicas to one holder as a single
// batched store: metadata rides the gob payload, the shard bodies ride
// the message's raw byte body as length-prefixed frames, handed over as
// segments so the bytes the shards were cut from are what a serializing
// transport writes. A shard with Data carries it; one without (SaveView's)
// is its Bounds() of view. The segment list is built in scratch, which is
// returned for the next push. One round trip per holder instead of one per
// shard.
func (m *Manager) pushShardBatch(target id.ID, shards []shard.Shard, view, scratch [][]byte) ([][]byte, error) {
	if len(shards) == 0 {
		return scratch, nil
	}
	last, _ := m.Placement(shards[0].App)
	metas, segs, total := shardBatchSegs(shards, view, scratch[:0])
	_, err := m.node.Send(target, simnet.Message{
		Kind:    kindStoreBatch,
		Size:    msgHeader + total,
		Payload: &storeBatchMsg{Metas: metas, Published: last.Version},
		RawSegs: segs,
	})
	clear(segs) // the transport is done with them: drop the references
	return segs, err
}

// storeBatch stores the replicas one push delivered, all of one app at
// one version (handleStoreBatch refuses any other push), so they join one
// set or none. published is the version of the placement the pusher last
// published or recovered for the app (zero when it knows none). release,
// when not nil, releases the push body the replicas' Data alias: it runs
// once their set is dropped and unpinned — at once if it kept none.
func (m *Manager) storeBatch(shards []shard.Shard, published state.Version, release func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var set *replicaSet
	for _, s := range shards {
		set = m.storeLocked(s, published)
	}
	switch {
	case release == nil:
	case set == nil:
		release()
	default:
		set.bodies = append(set.bodies, release)
	}
}

// storeLocked stores one pushed replica and returns the set it joined, or
// nil when it was refused (caller holds m.mu).
func (m *Manager) storeLocked(s shard.Shard, published state.Version) *replicaSet {
	h := m.shards[s.App]
	if h == nil {
		h = &held{cur: newSet(s.Version)}
		m.shards[s.App] = h
	}
	if s.Version.Newer(h.cur.version) {
		// Supersession: the newest set becomes the fallback and the older
		// fallback goes — unless the pusher says it published some other
		// version, in which case the newest set is what an aborted save
		// left behind and the fallback already held is the one to keep.
		if published == (state.Version{}) || published == h.cur.version {
			h.prev.drop()
			h.prev = h.cur
		} else {
			h.cur.drop()
		}
		h.cur = newSet(s.Version)
	}
	// A write older than both retained versions finds no set and is
	// dropped: version control (paper §4, modification 3).
	set := h.at(s.Version)
	if set != nil {
		set.shards[s.Key()] = s
	}
	return set
}

// heldShards returns one of this node's replicas for each of the given
// app indices it holds at version v, pinned: the set's push bodies are not
// released until unpin runs, so the caller may read — or lend a reply —
// the replicas' Data until then. unpin is never nil; call it once.
func (m *Manager) heldShards(app string, indices []int, v state.Version) (out []shard.Shard, unpin func()) {
	want := make(map[int]bool, len(indices))
	for _, i := range indices {
		want[i] = true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	set := m.shards[app].at(v)
	if set == nil {
		return nil, func() {}
	}
	for k, s := range set.shards {
		if want[k.Index] {
			out = append(out, s)
			delete(want, k.Index)
		}
	}
	set.pins++
	return out, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		set.pins--
		set.release()
	}
}

// DropShards deletes shard replicas (failure injection for Fig 10: "we
// deliberately remove some shards of application state in some nodes").
func (m *Manager) DropShards(app string, pred func(shard.Key) bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.shards[app]
	if h == nil {
		return 0
	}
	n := 0
	for _, set := range h.sets() {
		for k := range set.shards {
			if pred == nil || pred(k) {
				delete(set.shards, k)
				n++
			}
		}
	}
	return n
}

// HasShard reports whether a replica is stored here, at either retained
// version.
func (m *Manager) HasShard(k shard.Key) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.shards[k.App]; h != nil {
		for _, set := range h.sets() {
			if _, ok := set.shards[k]; ok {
				return true
			}
		}
	}
	return false
}

// hasShardAt reports whether any replica of (app, index) is stored here
// at exactly version v — the repair loop's health predicate.
func (m *Manager) hasShardAt(app string, index int, v state.Version) bool {
	ss, unpin := m.heldShards(app, []int{index}, v)
	unpin()
	return len(ss) > 0
}

// GCShards applies version-scoped garbage collection for one app against
// its published placement p: replicas with a version older than p.Version
// are stale leftovers of earlier saves; replicas at p.Version that the
// placement no longer assigns to this node are orphans (the slot moved
// during repair). Both are deleted. Replicas *newer* than p.Version are
// kept — they belong to a save whose placement has not been published
// yet, and deleting them would destroy the only copy of in-flight state.
// Returns (stale, orphans) deletion counts. A stale set's push bodies are
// unmapped as soon as no reply reads them (replicaSet).
func (m *Manager) GCShards(app string, p shard.Placement) (stale, orphans int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.shards[app]
	if h == nil {
		return 0, 0
	}
	self := m.node.ID()
	if h.prev != nil && p.Version.Newer(h.prev.version) {
		stale += len(h.prev.shards)
		h.prev.drop()
		h.prev = nil
	}
	if p.Version.Newer(h.cur.version) {
		stale += len(h.cur.shards)
		h.cur.drop()
		h.cur = newSet(h.cur.version)
	}
	if published := h.at(p.Version); published != nil {
		for k := range published.shards {
			if p.Loc[k] != self {
				delete(published.shards, k)
				orphans++
			}
		}
	}
	return stale, orphans
}

// Placement returns the locally recorded placement for app (owner side).
func (m *Manager) Placement(app string) (shard.Placement, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.placements[app]
	return p, ok
}

// LookupPlacement fetches a state's placement table from the overlay's
// KV. Repair republishes tables in place (same version, bumped epoch), and
// after churn stale same-version copies can linger on old KV replicas — so
// the lookup reads every reachable copy and returns the one that
// supersedes the rest, not whichever copy one node happens to hold. Only
// a KV that answered and holds no copy is ErrNoPlacement; one that could
// not be asked is a plain error, so a caller that starts never-saved
// state empty cannot take an outage for "never saved".
func (m *Manager) LookupPlacement(app string) (shard.Placement, error) {
	blobs, err := m.node.GetAll(placementKVKey(app))
	if errors.Is(err, dht.ErrNotFound) {
		return shard.Placement{}, fmt.Errorf("%w: %v", ErrNoPlacement, err)
	}
	if err != nil {
		return shard.Placement{}, fmt.Errorf("lookup placement %q: %w", app, err)
	}
	var best shard.Placement
	found := false
	for _, blob := range blobs {
		p, err := DecodePlacement(blob)
		if err != nil {
			continue // a corrupt replica must not mask a valid one
		}
		if !found || p.Supersedes(best) {
			best, found = p, true
		}
	}
	if !found {
		return shard.Placement{}, fmt.Errorf("%w: no valid placement copy for %q", ErrNoPlacement, app)
	}
	return best, nil
}

// SetRecovered records a reconstructed snapshot at the replacement node.
// Only the in-process Cluster calls it (its tests read the copy back);
// RecoverPlacement itself retains nothing.
func (m *Manager) SetRecovered(app string, snapshot []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recovered[app] = append([]byte(nil), snapshot...)
}

// Recovered returns the reconstructed snapshot for app, if any.
func (m *Manager) Recovered(app string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.recovered[app]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// --- message handlers ---

// storeBatchMsg is the batched store: Metas carries data-free shard
// metadata, the message's raw body carries the matching data frames
// (frame i ↔ Metas[i], see shardBatchSegs).
type storeBatchMsg struct {
	Metas []shard.Shard
	// Published is the sender's last published (or recovered) version of
	// the app, which a holder must not let repeated aborted saves push
	// out of its two retained versions; see storeLocked.
	Published state.Version
}

func (m *Manager) handleStoreBatch(_ id.ID, msg simnet.Message) (simnet.Message, error) {
	req, ok := msg.Payload.(*storeBatchMsg)
	if !ok {
		return simnet.Message{}, fmt.Errorf("recovery: bad store batch payload %T", msg.Payload)
	}
	// The body is kept as it was read — the stored shards are views of it —
	// and goes back to the transport when their set is dropped: one set,
	// so one app at one version, as every save and repair pushes.
	raw, release := msg.TakeRaw()
	shards, err := DecodeShardBatch(req.Metas, raw)
	if err == nil && len(shards) > 0 {
		for _, s := range shards[1:] {
			if s.App != shards[0].App || s.Version != shards[0].Version {
				err = fmt.Errorf("recovery: store batch mixes %s@%v and %s@%v", shards[0].App, shards[0].Version, s.App, s.Version)
				break
			}
		}
	}
	if err != nil {
		if release != nil {
			release()
		}
		return simnet.Message{}, err
	}
	m.storeBatch(shards, req.Published, release)
	return simnet.Message{Kind: kindAck, Size: msgHeader}, nil
}

type fetchIndexRequest struct {
	App   string
	Index int
	// Version is the placement's: a holder may also keep a newer,
	// half-pushed version that must not be served in its place.
	Version state.Version
}

type fetchReply struct {
	Found bool
	// Shard arrives with Data nil: the data travels in the reply's raw
	// byte body (chunk-streamed by serializing transports) and the caller
	// reattaches it.
	Shard shard.Shard
}

// handleFetchIndex returns any replica of the given shard index stored
// here at the requested version — used when the exact replica number is
// unknown. The shard's data is split off into the reply's raw body, which
// aliases the stored bytes. A save that supersedes the version while the
// reply is still being written cannot hurt it: the reply pins the set, so
// its push body is not unmapped until the transport runs the reply's free
// func, once the bytes are on the wire.
func (m *Manager) handleFetchIndex(_ id.ID, msg simnet.Message) (simnet.Message, error) {
	req, ok := msg.Payload.(*fetchIndexRequest)
	if !ok {
		return simnet.Message{}, fmt.Errorf("recovery: bad fetchIndex payload %T", msg.Payload)
	}
	ss, unpin := m.heldShards(req.App, []int{req.Index}, req.Version)
	if len(ss) == 0 {
		unpin()
		return simnet.Message{Kind: kindAck, Size: msgHeader, Payload: &fetchReply{}}, nil
	}
	s, data := ss[0], ss[0].Data
	s.Data = nil
	reply := simnet.Message{Kind: kindAck, Size: msgHeader + len(data),
		Payload: &fetchReply{Found: true, Shard: s}, Raw: data[:len(data):len(data)]}
	reply.SetFree(unpin)
	return reply, nil
}
