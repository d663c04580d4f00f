package fp4s

import (
	"encoding/gob"
	"fmt"
	"sort"
	"sync"

	"sr3/internal/dht"
	"sr3/internal/erasure"
	"sr3/internal/id"
	"sr3/internal/simnet"
	"sr3/internal/state"
)

// Message kinds served by the per-node FP4S agent.
const (
	kindStore = "fp4s.block.store"
	kindFetch = "fp4s.block.fetch"
	kindAck   = "fp4s.ack"
)

const msgHeader = 48

// RegisterWire registers FP4S message payloads with gob for serializing
// transports.
func RegisterWire() {
	gob.Register(&blockEnvelope{})
	gob.Register(&fetchBlockRequest{})
	gob.Register(&fetchBlockReply{})
}

// blockEnvelope is one stored coded block.
type blockEnvelope struct {
	App     string
	Index   int
	Version state.Version
	Data    []byte
}

type fetchBlockRequest struct {
	App   string
	Index int
}

type fetchBlockReply struct {
	Found bool
	Block blockEnvelope
}

// Manager is the per-node FP4S agent: it stores coded blocks and serves
// fetches. It is the baseline counterpart of recovery.Manager, placed on
// the same DHT nodes for comparisons.
type Manager struct {
	node  *dht.Node
	mech  *Mechanism
	mu    sync.Mutex
	store map[string]blockEnvelope // key app/index
}

// NewManager attaches an FP4S agent with the (k, n) mechanism to a node.
func NewManager(n *dht.Node, mech *Mechanism) *Manager {
	m := &Manager{node: n, mech: mech, store: make(map[string]blockEnvelope)}
	n.HandleDirect(kindStore, m.handleStore)
	n.HandleDirect(kindFetch, m.handleFetch)
	return m
}

func blockKey(app string, index int) string { return fmt.Sprintf("%s/%d", app, index) }

// Save RS-encodes the snapshot into n coded blocks and scatters them over
// the owner's leaf set (paper §2.3: each operator's state is divided into
// m fragments, encoded into n blocks and checkpointed to n leaf-set nodes).
func (m *Manager) Save(app string, snapshot []byte, v state.Version) ([]id.ID, error) {
	blocks, err := m.mech.Fragment(snapshot)
	if err != nil {
		return nil, fmt.Errorf("fp4s save %q: %w", app, err)
	}
	leaves := m.node.LeafSet()
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Less(leaves[j]) })
	if len(leaves) == 0 {
		return nil, fmt.Errorf("fp4s save %q: %w", app, ErrTooFewHolders)
	}
	holders := make([]id.ID, len(blocks))
	for i, b := range blocks {
		target := leaves[i%len(leaves)]
		holders[i] = target
		env := &blockEnvelope{App: app, Index: b.Index, Version: v, Data: b.Data}
		if target == m.node.ID() {
			m.storeLocal(*env)
			continue
		}
		if _, err := m.node.Send(target, simnet.Message{
			Kind:    kindStore,
			Size:    msgHeader + len(b.Data),
			Payload: env,
		}); err != nil {
			return nil, fmt.Errorf("fp4s save %q block %d: %w", app, b.Index, err)
		}
	}
	return holders, nil
}

func (m *Manager) storeLocal(env blockEnvelope) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := blockKey(env.App, env.Index)
	if old, ok := m.store[key]; ok && old.Version.Newer(env.Version) {
		return
	}
	m.store[key] = env
}

func (m *Manager) handleStore(_ id.ID, msg simnet.Message) (simnet.Message, error) {
	env, ok := msg.Payload.(*blockEnvelope)
	if !ok {
		return simnet.Message{}, fmt.Errorf("fp4s: bad store payload %T", msg.Payload)
	}
	m.storeLocal(*env)
	return simnet.Message{Kind: kindAck, Size: msgHeader}, nil
}

func (m *Manager) handleFetch(_ id.ID, msg simnet.Message) (simnet.Message, error) {
	req, ok := msg.Payload.(*fetchBlockRequest)
	if !ok {
		return simnet.Message{}, fmt.Errorf("fp4s: bad fetch payload %T", msg.Payload)
	}
	m.mu.Lock()
	env, found := m.store[blockKey(req.App, req.Index)]
	m.mu.Unlock()
	return simnet.Message{
		Kind:    kindAck,
		Size:    msgHeader + len(env.Data),
		Payload: &fetchBlockReply{Found: found, Block: env},
	}, nil
}

// Recover fetches any K() live blocks from the holders and RS-decodes the
// snapshot — FP4S's star-shaped recovery, tolerating up to n−k losses.
func (m *Manager) Recover(app string, holders []id.ID) ([]byte, error) {
	need := m.mech.K()
	collected := make([]erasure.Block, 0, need)
	for index, holder := range holders {
		if len(collected) == need {
			break
		}
		var env blockEnvelope
		found := false
		if holder == m.node.ID() {
			m.mu.Lock()
			env, found = m.store[blockKey(app, index)]
			m.mu.Unlock()
		} else {
			resp, err := m.node.Send(holder, simnet.Message{
				Kind:    kindFetch,
				Size:    msgHeader + len(app) + 8,
				Payload: &fetchBlockRequest{App: app, Index: index},
			})
			if err != nil {
				continue // dead holder: try the remaining blocks
			}
			reply, ok := resp.Payload.(*fetchBlockReply)
			if !ok {
				return nil, fmt.Errorf("fp4s: bad fetch reply %T", resp.Payload)
			}
			env, found = reply.Block, reply.Found
		}
		if found {
			collected = append(collected, erasure.Block{Index: env.Index, Data: env.Data})
		}
	}
	if len(collected) < need {
		return nil, fmt.Errorf("fp4s recover %q: %d of %d blocks: %w",
			app, len(collected), need, ErrTooFewHolders)
	}
	snap, err := m.mech.Reconstruct(collected)
	if err != nil {
		return nil, fmt.Errorf("fp4s recover %q: %w", app, err)
	}
	return snap, nil
}
