package cluster

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/recovery"
	"sr3/internal/simnet"
	"sr3/internal/state"
	"sr3/internal/stream"
)

// viewOverlay is recovery.Overlay over the cluster View, so the daemon
// protects and rebuilds state through the same recovery.Manager the
// in-process ring deployment runs: a member's overlay ID is the hash of
// its name, its neighbours are the live members (itself included — a
// cluster smaller than the replica count still saves), a message is one
// exchange with the member's listener, and the placement KV is a blob kept
// on every live member. Its handler table is the daemon's only one: the
// recovery layer registers its kinds here (HandleDirect), the node its
// cluster.* kinds (registerHandlers), and every 'C' connection is served
// by dispatch.
type viewOverlay struct {
	node *Node
	self id.ID

	// closed refuses to publish placements: set as the node goes down,
	// before its relays close. What the runtime drains after that emits
	// into nothing; a published state covering those tuples would suppress
	// their re-emission after recovery.
	closed atomic.Bool

	mu       sync.Mutex
	handlers map[string]simnet.Handler
	kv       map[string][]byte
}

func newViewOverlay(n *Node) *viewOverlay {
	o := &viewOverlay{
		node:     n,
		self:     id.HashKey(n.cfg.Name),
		handlers: map[string]simnet.Handler{},
		kv:       map[string][]byte{},
	}
	o.HandleDirect(kindKVPut, func(_ id.ID, msg simnet.Message) (simnet.Message, error) {
		key, _ := msg.Payload.(string)
		blob := append([]byte(nil), msg.Raw...)
		o.mu.Lock()
		o.kv[key] = blob
		o.mu.Unlock()
		// A put reaches every live member, so it is also the publication
		// notice of the version the blob names: this holder drops what
		// that version supersedes — strictly older replicas only; what an
		// aborted or in-flight save pushed here is newer and stays.
		if p, err := recovery.DecodePlacement(blob); err == nil {
			n.backend.mgr.GCShards(p.App, p)
		}
		return simnet.Message{Kind: kindKVPut}, nil
	})
	o.HandleDirect(kindKVGet, func(_ id.ID, msg simnet.Message) (simnet.Message, error) {
		key, _ := msg.Payload.(string)
		o.mu.Lock()
		defer o.mu.Unlock()
		return simnet.Message{Kind: kindKVGet, Raw: o.kv[key]}, nil
	})
	return o
}

func (o *viewOverlay) ID() id.ID { return o.self }

// live maps the overlay IDs of the live members to their records.
func (o *viewOverlay) live() map[id.ID]Member {
	out := map[id.ID]Member{}
	for _, m := range o.node.liveMembersView() {
		out[id.HashKey(m.Name)] = m
	}
	return out
}

func (o *viewOverlay) LeafSet() []id.ID {
	var out []id.ID
	for nid := range o.live() {
		out = append(out, nid)
	}
	return out
}

func (o *viewOverlay) PeerAlive(nid id.ID) bool {
	_, ok := o.live()[nid]
	return ok
}

func (o *viewOverlay) HandleDirect(kind string, f simnet.Handler) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.handlers[kind] = f
}

// dispatch runs the handler registered for msg's kind.
func (o *viewOverlay) dispatch(from id.ID, msg simnet.Message) (simnet.Message, error) {
	o.mu.Lock()
	h := o.handlers[msg.Kind]
	o.mu.Unlock()
	if h == nil {
		return simnet.Message{}, fmt.Errorf("%w: message kind %q", ErrUnknownRPC, msg.Kind)
	}
	return h(from, msg)
}

// Send is a local dispatch for this node and one exchange for any other
// live member; a member the view lists as dead is not dialled.
func (o *viewOverlay) Send(to id.ID, msg simnet.Message) (simnet.Message, error) {
	if to == o.self {
		msg.JoinSegs()
		return o.dispatch(o.self, msg)
	}
	m, ok := o.live()[to]
	if !ok {
		return simnet.Message{}, fmt.Errorf("%w: %s is not a live member", ErrRPC, to.Short())
	}
	return o.node.net.Exchange(m.Addr, o.self, msg, rpcTimeout)
}

// broadcast sends msg to every live member at once and returns the
// replies in member order.
func (o *viewOverlay) broadcast(msg simnet.Message) ([]simnet.Message, []error) {
	targets := o.LeafSet()
	resps, errs := make([]simnet.Message, len(targets)), make([]error, len(targets))
	var wg sync.WaitGroup
	for i, to := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = o.Send(to, msg)
		}()
	}
	wg.Wait()
	return resps, errs
}

// Put stores value on every live member; like a shard push, one that
// cannot be reached fails the save, and the owner retries.
func (o *viewOverlay) Put(key string, value []byte) error {
	if o.closed.Load() {
		return fmt.Errorf("%w: node %s is going down", ErrRPC, o.node.cfg.Name)
	}
	_, errs := o.broadcast(simnet.Message{Kind: kindKVPut, Payload: key, Raw: value})
	return errors.Join(errs...)
}

// GetAll returns every live member's copy of key. No copy where every
// member answered is an empty result; no copy where some member could
// not be asked is an error, because that member may hold the only one.
func (o *viewOverlay) GetAll(key string) ([][]byte, error) {
	resps, errs := o.broadcast(simnet.Message{Kind: kindKVGet, Payload: key})
	var out [][]byte
	for _, r := range resps {
		if len(r.Raw) > 0 {
			out = append(out, r.Raw)
		}
	}
	if err := errors.Join(errs...); len(out) == 0 && err != nil {
		return nil, fmt.Errorf("kv getall %q: %w", key, err)
	}
	return out, nil
}

// scatterBackend is the multi-process stream.StateBackend: Save and
// Recover are recovery.Manager's, run over the view overlay. Repair stays
// daemon-only: every local task's last snapshot is retained so repairTick
// can re-save it after membership moved.
type scatterBackend struct {
	node    *Node
	overlay *viewOverlay
	mgr     *recovery.Manager
	// mech forces the recovery mechanism (tests); zero selects by state
	// size, §3.7.
	mech recovery.Mechanism

	mu   sync.Mutex
	last map[string]*retained // taskKey -> latest local snapshot
}

// retained is one task's latest snapshot. mu is held across a whole save,
// so a repair re-save of an older version can never publish its
// placement after the task's own save of a newer one.
type retained struct {
	mu      sync.Mutex
	data    []byte
	version state.Version
	// size is len(data), for a scrape that must not wait out a save.
	size atomic.Int64
	// epoch is the view epoch under which version last stored every
	// replica; zero (no view has it) until a save has succeeded.
	epoch int64
}

var _ stream.TracedBackend = (*scatterBackend)(nil)

func newScatterBackend(n *Node) *scatterBackend {
	recovery.RegisterWire()
	b := &scatterBackend{node: n, overlay: newViewOverlay(n), last: map[string]*retained{}}
	b.mgr = recovery.NewManager(b.overlay)
	b.mgr.SetTracer(n.tracer)
	return b
}

// Save retains the snapshot for repair and scatters it; the snapshot is
// the backend's from the call on (stream.StateBackend) and is kept, not
// copied. An unreachable holder aborts the save with nothing published —
// the last complete version stays recoverable — and the runtime saves
// again.
func (b *scatterBackend) Save(taskKey string, snapshot []byte, v state.Version) error {
	b.mu.Lock()
	r := b.last[taskKey]
	if r == nil {
		r = &retained{}
		b.last[taskKey] = r
	}
	b.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if v.Newer(r.version) {
		r.data, r.version, r.epoch = snapshot, v, 0
		r.size.Store(int64(len(snapshot)))
	}
	return b.protect(taskKey, r)
}

// protect scatters r (caller holds r.mu) unless its version already
// stored every replica under the current view epoch — read first, so
// membership that moves mid-save leaves the record behind for the next
// repair tick.
func (b *scatterBackend) protect(taskKey string, r *retained) error {
	view := b.node.currentView()
	if r.epoch == view.Epoch {
		return nil
	}
	spec := b.node.spec
	replicas := min(spec.Replicas, len(view.liveMembers()))
	if _, err := b.mgr.Save(taskKey, r.data, spec.Shards, replicas, r.version); err != nil {
		return err
	}
	r.epoch = view.Epoch
	return nil
}

// Recover rebuilds taskKey's state from the scattered shards.
func (b *scatterBackend) Recover(taskKey string) ([]byte, error) {
	return b.RecoverTraced(taskKey, nil, obs.SpanContext{})
}

// RecoverTraced is Recover with the recovery's plan, fetch/collect and
// merge spans parented on the adoption's recovery span, by the mechanism
// and options §3.7 selects for the placement's state size. A task that
// never saved has no placement anywhere and recovers to the empty state
// (its senders' relay windows replay its input on top).
func (b *scatterBackend) RecoverTraced(taskKey string, tr *obs.Tracer, parent obs.SpanContext) ([]byte, error) {
	start := time.Now()
	p, err := b.mgr.LookupPlacement(taskKey)
	if parent.Valid() {
		// The lookup is a fetch too: the table is read from every member.
		tr.RecordSpan(parent, obs.PhaseFetch, start, time.Now(), obs.Str("what", "placement"))
	}
	if errors.Is(err, recovery.ErrNoPlacement) {
		return state.NewMapStore().Snapshot()
	}
	if err != nil {
		return nil, err
	}
	d := recovery.Select(recovery.Requirements{StateBytes: int64(p.TotalLen)})
	if b.mech != 0 {
		d.Mechanism = b.mech
	}
	d.Options.Tracer, d.Options.TraceParent = tr, parent
	res, err := b.mgr.RecoverPlacement(p, d.Mechanism, d.Options)
	return res.Snapshot, err
}

// repairTick re-saves every retained snapshot whose last complete save
// predates the current view epoch: it re-populates a crashed-and-rejoined
// holder (the new incarnation bumps the epoch) and restores replication
// after an adoption. With no membership change and no failed save a tick
// sends nothing.
func (b *scatterBackend) repairTick() {
	b.mu.Lock()
	tasks := maps.Clone(b.last)
	b.mu.Unlock()
	for key, r := range tasks {
		r.mu.Lock()
		err := b.protect(key, r)
		r.mu.Unlock()
		if err != nil {
			b.node.logf("repair %s: %v", key, err)
		}
	}
}

// retainedBytes is the size of the snapshots retained for repair.
func (b *scatterBackend) retainedBytes() int64 {
	b.mu.Lock()
	tasks := maps.Clone(b.last)
	b.mu.Unlock()
	var total int64
	for _, r := range tasks {
		total += r.size.Load()
	}
	return total
}

// forget drops retained snapshots for tasks this node no longer hosts.
func (b *scatterBackend) forget(taskKeys []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, k := range taskKeys {
		delete(b.last, k)
	}
}
