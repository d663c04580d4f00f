package stream

import (
	"errors"
	"fmt"
	"sync"

	"sr3/internal/checkpoint"
	"sr3/internal/dht"
	"sr3/internal/fp4s"
	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/recovery"
	"sr3/internal/replication"
	"sr3/internal/state"
)

// SR3Backend stores task state through the SR3 recovery cluster: each
// task's snapshot is owned by the DHT node closest to the task key and
// scattered as shards over that node's leaf set. Recovery runs the
// configured mechanism (or, with Mechanism == 0, the §3.7 selection
// heuristic for the saved state's size), and lends the task the shard
// bodies as they arrived (recovery.Cluster.Recover).
type SR3Backend struct {
	cluster  *recovery.Cluster
	shards   int
	replicas int
	// Mechanism forces one mechanism; 0 selects per state size.
	Mechanism recovery.Mechanism
	// Options tune a forced mechanism's recovery.
	Options recovery.Options
}

var _ StateBackend = (*SR3Backend)(nil)

// NewSR3Backend wires task state saving onto an SR3 cluster.
func NewSR3Backend(cluster *recovery.Cluster, shards, replicas int) *SR3Backend {
	return &SR3Backend{
		cluster:  cluster,
		shards:   shards,
		replicas: replicas,
		Options:  recovery.DefaultOptions(),
	}
}

// Save scatters the view over the owner's leaf set, the shards cut as
// ranges of it (recovery.Manager.SaveView); the holders keep copies.
func (b *SR3Backend) Save(taskKey string, view state.View, v state.Version) error {
	owner, err := b.ownerFor(taskKey)
	if err != nil {
		return err
	}
	mgr := b.cluster.Manager(owner)
	if _, err := mgr.SaveView(taskKey, view.Segs, b.shards, b.replicas, v); err != nil {
		return fmt.Errorf("sr3 backend: %w", err)
	}
	return nil
}

// Recover rebuilds the state with the configured or selected mechanism and
// lends it as the shard bodies as they arrived.
func (b *SR3Backend) Recover(taskKey string) (state.View, error) {
	return b.RecoverTraced(taskKey, nil, obs.SpanContext{})
}

// RecoverTraced is Recover with the cluster recovery's spans parented on
// the caller's trace (the supervisor's selfheal root) — the TracedBackend
// hookup.
func (b *SR3Backend) RecoverTraced(taskKey string, tr *obs.Tracer, parent obs.SpanContext) (state.View, error) {
	opts := b.Options
	if tr != nil {
		opts.Tracer, opts.TraceParent = tr, parent
	}
	_, v, err := b.cluster.Recover(taskKey, b.Mechanism, opts)
	if err != nil {
		return state.View{}, fmt.Errorf("sr3 backend: %w", err)
	}
	return v, nil
}

// ownerFor maps a task to its owning DHT node: the live node whose ID is
// closest to the task key's hash.
func (b *SR3Backend) ownerFor(taskKey string) (ownerID, error) {
	nid, ok := b.cluster.Ring.ClosestLive(hashTask(taskKey))
	if !ok {
		return ownerID{}, fmt.Errorf("sr3 backend: no live node for %q", taskKey)
	}
	return nid, nil
}

// CheckpointBackend is the baseline: snapshots go to the shared remote
// store (paper §2.2 checkpointing recovery).
type CheckpointBackend struct {
	store *checkpoint.Store
}

var _ StateBackend = (*CheckpointBackend)(nil)

// NewCheckpointBackend wraps a remote store.
func NewCheckpointBackend(store *checkpoint.Store) *CheckpointBackend {
	return &CheckpointBackend{store: store}
}

// Save checkpoints the view remotely (the store keeps a copy).
func (b *CheckpointBackend) Save(taskKey string, view state.View, v state.Version) error {
	b.store.Save(taskKey, view.Bytes(), v)
	return nil
}

// Recover lends the latest checkpoint.
func (b *CheckpointBackend) Recover(taskKey string) (state.View, error) {
	snap, _, err := b.store.Fetch(taskKey)
	if err != nil {
		return state.View{}, fmt.Errorf("checkpoint backend: %w", err)
	}
	return state.ViewOf(snap), nil
}

// ReplicationBackend is the hot-standby baseline (paper §2.2,
// Flux/Borealis style): every snapshot is applied to a primary/secondary
// pair, and recovery is a failover to the standby — nearly instant, at
// double the hardware. Each task gets its own pair, mirroring one
// standby per stateful operator.
type ReplicationBackend struct {
	mu    sync.Mutex
	pairs map[string]*replication.Pair
}

var _ StateBackend = (*ReplicationBackend)(nil)

// NewReplicationBackend returns an empty replication baseline.
func NewReplicationBackend() *ReplicationBackend {
	return &ReplicationBackend{pairs: make(map[string]*replication.Pair)}
}

const replSnapshotKey = "snapshot"

func (b *ReplicationBackend) pair(taskKey string) *replication.Pair {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.pairs[taskKey]
	if !ok {
		p = replication.NewPair()
		b.pairs[taskKey] = p
	}
	return p
}

// Save applies the view to both replicas of the task's pair (each keeps
// a copy).
func (b *ReplicationBackend) Save(taskKey string, view state.View, _ state.Version) error {
	if err := b.pair(taskKey).Put(replSnapshotKey, view.Bytes()); err != nil {
		return fmt.Errorf("replication backend: %w", err)
	}
	return nil
}

// Recover simulates the primary's crash and fails over to the standby,
// then re-establishes the pair so a later failure is survivable again.
func (b *ReplicationBackend) Recover(taskKey string) (state.View, error) {
	p := b.pair(taskKey)
	if err := p.FailPrimary(); err != nil && !errors.Is(err, replication.ErrPrimaryDown) {
		return state.View{}, fmt.Errorf("replication backend: %w", err)
	}
	snap, ok, err := p.Get(replSnapshotKey)
	if err != nil {
		return state.View{}, fmt.Errorf("replication backend: %w", err)
	}
	if !ok {
		return state.View{}, fmt.Errorf("replication backend: no snapshot for %q", taskKey)
	}
	if err := p.RestorePrimary(); err != nil {
		return state.View{}, fmt.Errorf("replication backend: %w", err)
	}
	return state.ViewOf(snap), nil
}

// FP4SBackend stores task state through the FP4S baseline (paper §2.3):
// snapshots are RS-coded into n blocks scattered over the owner's leaf
// set, and recovery star-fetches any k of them. It shares the DHT ring
// with the SR3 cluster so matrix cells compare mechanisms on identical
// topology and chaos.
type FP4SBackend struct {
	ring *dht.Ring
	mech *fp4s.Mechanism

	mu      sync.Mutex
	mgrs    map[id.ID]*fp4s.Manager
	holders map[string][]id.ID
}

var _ StateBackend = (*FP4SBackend)(nil)

// NewFP4SBackend attaches an FP4S (k, n) agent to every ring node.
func NewFP4SBackend(ring *dht.Ring, k, n int) (*FP4SBackend, error) {
	mech, err := fp4s.New(k, n)
	if err != nil {
		return nil, fmt.Errorf("fp4s backend: %w", err)
	}
	fp4s.RegisterWire()
	b := &FP4SBackend{
		ring:    ring,
		mech:    mech,
		mgrs:    make(map[id.ID]*fp4s.Manager),
		holders: make(map[string][]id.ID),
	}
	for _, nid := range ring.IDs() {
		b.mgrs[nid] = fp4s.NewManager(ring.Node(nid), mech)
	}
	return b, nil
}

// Save fragments the view on the task's owner (the code blocks are fresh
// buffers) and records the block holders for recovery.
func (b *FP4SBackend) Save(taskKey string, view state.View, v state.Version) error {
	owner, ok := b.ring.ClosestLive(hashTask(taskKey))
	if !ok {
		return fmt.Errorf("fp4s backend: no live node for %q", taskKey)
	}
	b.mu.Lock()
	mgr := b.mgrs[owner]
	b.mu.Unlock()
	holders, err := mgr.Save(taskKey, view.Bytes(), v)
	if err != nil {
		return fmt.Errorf("fp4s backend: %w", err)
	}
	b.mu.Lock()
	b.holders[taskKey] = holders
	b.mu.Unlock()
	return nil
}

// Recover star-fetches any k blocks from a live agent and RS-decodes.
func (b *FP4SBackend) Recover(taskKey string) (state.View, error) {
	b.mu.Lock()
	holders, ok := b.holders[taskKey]
	b.mu.Unlock()
	if !ok {
		return state.View{}, fmt.Errorf("fp4s backend: no blocks for %q", taskKey)
	}
	coord, live := b.ring.ClosestLive(hashTask(taskKey))
	if !live {
		return state.View{}, fmt.Errorf("fp4s backend: no live node for %q", taskKey)
	}
	b.mu.Lock()
	mgr := b.mgrs[coord]
	b.mu.Unlock()
	snap, err := mgr.Recover(taskKey, holders)
	if err != nil {
		return state.View{}, fmt.Errorf("fp4s backend: %w", err)
	}
	return state.ViewOf(snap), nil
}

// MemoryBackend keeps snapshots in-process — the trivial backend for
// unit tests and the quickstart example.
type MemoryBackend struct {
	mu    sync.Mutex
	snaps map[string][]byte
}

var _ StateBackend = (*MemoryBackend)(nil)

// NewMemoryBackend returns an empty in-memory backend.
func NewMemoryBackend() *MemoryBackend {
	return &MemoryBackend{snaps: make(map[string][]byte)}
}

// Save stores a copy of the view.
func (b *MemoryBackend) Save(taskKey string, view state.View, _ state.Version) error {
	snap := view.Join()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.snaps[taskKey] = snap
	return nil
}

// Recover lends the stored snapshot, which a later Save replaces rather
// than overwrites.
func (b *MemoryBackend) Recover(taskKey string) (state.View, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	snap, ok := b.snaps[taskKey]
	if !ok {
		return state.View{}, fmt.Errorf("memory backend: no snapshot for %q", taskKey)
	}
	return state.ViewOf(snap), nil
}

// ownerID aliases the overlay ID type to keep the backend's signature
// readable.
type ownerID = id.ID

func hashTask(taskKey string) id.ID { return id.HashKey(taskKey) }
