// Package checkpoint implements the checkpointing-recovery baseline SR3
// is evaluated against (paper §2.2, §5.2): operators periodically write
// state snapshots to remote storage (HDFS/GFS-like); each upstream node
// buffers the records forwarded since the last checkpoint; on failure a
// standby fetches the latest checkpoint and the upstream replays its
// buffer serially to rebuild the lost state.
package checkpoint

import (
	"errors"
	"fmt"
	"sync"

	"sr3/internal/simnet"
	"sr3/internal/state"
)

// ErrNoCheckpoint reports a fetch for a state never checkpointed.
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint stored")

// Store is the remote blob store shared by all operators. It is
// deliberately simple: the baseline's costs live in the timed plans and
// in the replay path, not here.
type Store struct {
	mu    sync.RWMutex
	blobs map[string]snapshot
}

type snapshot struct {
	data    []byte
	version state.Version
}

// NewStore returns an empty remote store.
func NewStore() *Store {
	return &Store{blobs: make(map[string]snapshot)}
}

// Save persists a state snapshot, keeping only the newest version.
func (s *Store) Save(app string, data []byte, v state.Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.blobs[app]; ok && cur.version.Newer(v) {
		return
	}
	s.blobs[app] = snapshot{data: append([]byte(nil), data...), version: v}
}

// Fetch returns the latest checkpoint for app.
func (s *Store) Fetch(app string) ([]byte, state.Version, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap, ok := s.blobs[app]
	if !ok {
		return nil, state.Version{}, fmt.Errorf("fetch %q: %w", app, ErrNoCheckpoint)
	}
	return append([]byte(nil), snap.data...), snap.version, nil
}

// Len returns the number of checkpointed states.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs)
}

// Spec parameterizes the timed checkpointing plans (Figs 8a–8c).
type Spec struct {
	App string
	// Node is the operator (save) or standby (recover).
	Node string
	// StoreNode is the remote storage's simulated node.
	StoreNode string
	// UpstreamNode replays its buffer during recovery.
	UpstreamNode string
	TotalBytes   float64
	// ReplayFactor scales the replayed volume relative to state size
	// (how much upstream traffic accumulated since the last checkpoint).
	ReplayFactor float64
	RouteDelay   float64
}

func (s Spec) replayFactor() float64 {
	if s.ReplayFactor <= 0 {
		return 1
	}
	return s.ReplayFactor
}

// PlanSave emits the checkpoint save plan: one serialized write of the
// whole state to remote storage.
func PlanSave(b *simnet.PlanBuilder, spec Spec) simnet.TaskID {
	ser := b.Compute(spec.Node, spec.TotalBytes, spec.App+"/ckpt/serialize")
	return b.Transfer(spec.Node, spec.StoreNode, spec.TotalBytes, spec.RouteDelay,
		spec.App+"/ckpt/write", ser)
}

// PlanRecover emits the checkpoint recovery plan: fetch the snapshot from
// remote storage, restore it, then replay the upstream buffer serially
// on top of the restored state.
func PlanRecover(b *simnet.PlanBuilder, spec Spec) simnet.TaskID {
	fetch := b.Transfer(spec.StoreNode, spec.Node, spec.TotalBytes, spec.RouteDelay,
		spec.App+"/ckpt/fetch")
	restore := b.Compute(spec.Node, spec.TotalBytes, spec.App+"/ckpt/restore", fetch)
	replayVol := spec.TotalBytes * spec.replayFactor()
	replay := b.Transfer(spec.UpstreamNode, spec.Node, replayVol, spec.RouteDelay,
		spec.App+"/ckpt/replay", restore)
	return b.Compute(spec.Node, replayVol, spec.App+"/ckpt/reapply", replay)
}
