// Package dht implements a Pastry-style structured overlay: 128-bit node
// IDs, base-16 prefix routing tables, leaf sets, O(log N) key routing, node
// join, failure repair, keep-alive maintenance and a replicated key-value
// store. It is the substrate on which SR3 scatters and recovers state
// shards (paper §3.2).
package dht

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"sr3/internal/id"
	"sr3/internal/simnet"
)

// Config holds overlay tuning parameters.
type Config struct {
	// LeafSetSize is the total leaf set size (half clockwise, half
	// counter-clockwise). The paper's setup uses 24.
	LeafSetSize int
	// KVReplicas is how many leaf-set replicas the key-value store keeps
	// in addition to the root copy.
	KVReplicas int
}

// DefaultConfig mirrors the paper's evaluation setup (§5.1).
func DefaultConfig() Config {
	return Config{LeafSetSize: 24, KVReplicas: 2}
}

func (c Config) withDefaults() Config {
	if c.LeafSetSize <= 0 {
		c.LeafSetSize = 24
	}
	if c.LeafSetSize%2 != 0 {
		c.LeafSetSize++
	}
	if c.KVReplicas < 0 {
		c.KVReplicas = 0
	}
	return c
}

// Modeled wire sizes (bytes) for traffic accounting.
const (
	msgHeader = 48
	entrySize = id.Bytes + 4
	pingSize  = msgHeader
)

// Message kinds on the transport.
const (
	kindJoin       = "dht.join"
	kindAnnounce   = "dht.announce"
	kindRoute      = "dht.route"
	kindPing       = "dht.ping"
	kindLeafsetReq = "dht.leafset"
	kindAck        = "dht.ack"
)

// Errors.
var (
	ErrNoRoute   = errors.New("dht: routing made no progress")
	ErrNotJoined = errors.New("dht: node has not joined an overlay")
	ErrNotFound  = errors.New("dht: key not found")
)

// DeliverFunc handles an application message routed to this node (it is the
// root for msg key). It returns the application reply.
type DeliverFunc func(key id.ID, msg simnet.Message) (simnet.Message, error)

// Node is one overlay participant.
type Node struct {
	id  id.ID
	net simnet.Transport
	cfg Config

	mu sync.RWMutex
	// rt[row][col]: node sharing `row` digits of prefix with us whose
	// (row+1)-th digit is `col`. Zero ID means empty.
	rt [id.Digits][id.Base]id.ID
	// leafCand is the pool from which the cw/ccw leaf halves are derived.
	leafCand map[id.ID]bool
	leafCW   []id.ID // successors, ascending clockwise distance
	leafCCW  []id.ID // predecessors, ascending counter-clockwise distance

	deliver map[string]DeliverFunc
	direct  map[string]DirectFunc
	kv      map[string][]byte
	joined  bool

	// peerDown hooks fire when an upper layer reports a peer unreachable
	// via ReportDead. They are liveness *hints*, not verdicts: the φ-accrual
	// detector (internal/detector) subscribes here to focus its attention,
	// and only its own quorum logic declares a death.
	peerDown []func(peer id.ID)

	// instr publishes the steady-state metric handles outside n.mu
	// (instruments.go); nil until SetInstruments.
	instr instrHolder
}

// DirectFunc handles a point-to-point message addressed to this node by an
// upper layer (e.g. Scribe tree maintenance, shard pushes). It is the
// transport's handler type, so layers written against an interface (the
// recovery layer's Overlay) name it without importing dht.
type DirectFunc = simnet.Handler

// NewNode creates a node with the given ID, registers it on the transport
// and returns it. The node is not part of any overlay until Bootstrap or
// Join is called.
func NewNode(nid id.ID, net simnet.Transport, cfg Config) (*Node, error) {
	n := &Node{
		id:       nid,
		net:      net,
		cfg:      cfg.withDefaults(),
		leafCand: make(map[id.ID]bool),
		deliver:  make(map[string]DeliverFunc),
		direct:   make(map[string]DirectFunc),
		kv:       make(map[string][]byte),
	}
	if err := net.Register(nid, n.handle); err != nil {
		return nil, fmt.Errorf("dht: register node: %w", err)
	}
	return n, nil
}

// ID returns the node's overlay identifier.
func (n *Node) ID() id.ID { return n.id }

// HandleDelivered installs the handler for routed messages of one kind
// (invoked on the node that is the root for the message key).
func (n *Node) HandleDelivered(kind string, f DeliverFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.deliver[kind] = f
}

// HandleDirect installs the handler for point-to-point messages of one
// kind sent with Send.
func (n *Node) HandleDirect(kind string, f DirectFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.direct[kind] = f
}

// Send delivers a message straight to a known peer (no routing).
func (n *Node) Send(to id.ID, msg simnet.Message) (simnet.Message, error) {
	return n.net.Call(n.id, to, msg)
}

// ReportDead tells the node that a peer was observed to be unreachable so
// it is purged from the leaf set and routing table. Upper layers call this
// when their own point-to-point sends fail. Registered OnPeerDown hooks
// fire afterwards, outside the node lock.
func (n *Node) ReportDead(other id.ID) {
	n.forget(other)
	n.mu.RLock()
	hooks := make([]func(id.ID), len(n.peerDown))
	copy(hooks, n.peerDown)
	n.mu.RUnlock()
	for _, h := range hooks {
		h(other)
	}
}

// OnPeerDown registers a hook invoked (outside the node lock) every time
// ReportDead is called for a peer. Hooks fire only on explicit unreachable
// reports from upper layers — not on routine maintenance pruning — so a
// single dropped message never cascades into overlay-wide forgetting.
func (n *Node) OnPeerDown(f func(peer id.ID)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peerDown = append(n.peerDown, f)
}

// PeerAlive reports whether the transport currently considers a peer
// reachable. Upper layers use it to re-validate membership snapshots
// (e.g. a placement about to be published) against churn.
func (n *Node) PeerAlive(other id.ID) bool { return n.net.Alive(other) }

// NextHop exposes the routing decision for key: the next overlay hop, or
// deliverHere == true when this node is the root. Upper layers that build
// per-hop structures (Scribe trees) use this.
func (n *Node) NextHop(key id.ID) (next id.ID, deliverHere bool) {
	return n.nextHop(key)
}

// Bootstrap makes this node the first member of a new overlay.
func (n *Node) Bootstrap() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.joined = true
}

// Joined reports whether the node is part of an overlay.
func (n *Node) Joined() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.joined
}

// LeafSet returns the current leaf set (both halves, deduplicated, not
// including the node itself).
func (n *Node) LeafSet() []id.ID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.allLeavesLocked()
}

// RoutingTableEntries returns all non-empty routing table entries.
func (n *Node) RoutingTableEntries() []id.ID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []id.ID
	for r := range n.rt {
		for c := range n.rt[r] {
			if n.rt[r][c] != id.Zero {
				out = append(out, n.rt[r][c])
			}
		}
	}
	return out
}

// handle dispatches inbound transport messages. Payloads are structurally
// validated first so a malformed or hostile frame is rejected with an
// error instead of reaching a handler that might index or allocate on its
// claimed sizes.
func (n *Node) handle(from id.ID, msg simnet.Message) (simnet.Message, error) {
	if err := validateInbound(msg); err != nil {
		return simnet.Message{}, err
	}
	n.instr.load().noteMsg(msg.Kind)
	switch msg.Kind {
	case kindPing:
		return simnet.Message{Kind: kindAck, Size: pingSize}, nil
	case kindJoin:
		req, ok := msg.Payload.(*joinRequest)
		if !ok {
			return simnet.Message{}, fmt.Errorf("dht: bad join payload %T", msg.Payload)
		}
		return n.handleJoin(req)
	case kindAnnounce:
		arr, ok := msg.Payload.(*announceRequest)
		if !ok {
			return simnet.Message{}, fmt.Errorf("dht: bad announce payload %T", msg.Payload)
		}
		n.learn(arr.Joiner)
		return simnet.Message{Kind: kindAck, Size: msgHeader}, nil
	case kindLeafsetReq:
		ls := n.LeafSet()
		return simnet.Message{
			Kind:    kindLeafsetReq,
			Size:    msgHeader + entrySize*len(ls),
			Payload: &leafsetReply{Leaves: ls},
		}, nil
	case kindKVStore, kindKVFetch:
		return n.handleKVDirect(from, msg)
	case kindRoute:
		req, ok := msg.Payload.(*routeRequest)
		if !ok {
			return simnet.Message{}, fmt.Errorf("dht: bad route payload %T", msg.Payload)
		}
		return n.handleRoute(req)
	default:
		n.mu.RLock()
		h := n.direct[msg.Kind]
		n.mu.RUnlock()
		if h != nil {
			return h(from, msg)
		}
		return simnet.Message{}, fmt.Errorf("dht: unknown message kind %q", msg.Kind)
	}
}

// learn incorporates another node into the leaf set and routing table.
func (n *Node) learn(other id.ID) {
	if other == n.id || other == id.Zero {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.leafCand[other] {
		n.instr.load().noteLearn()
	}
	n.insertLeafLocked(other)
	n.insertRTLocked(other)
}

// forget removes a (failed) node from all local state.
func (n *Node) forget(other id.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.leafCand[other] {
		n.instr.load().noteForget()
	}
	delete(n.leafCand, other)
	n.rebuildLeavesLocked()
	row := id.CommonPrefixLen(n.id, other)
	if row < id.Digits {
		col := other.Digit(row)
		if n.rt[row][col] == other {
			n.rt[row][col] = id.Zero
		}
	}
}

func (n *Node) insertRTLocked(other id.ID) {
	row := id.CommonPrefixLen(n.id, other)
	if row >= id.Digits {
		return // same ID
	}
	col := other.Digit(row)
	if n.rt[row][col] == id.Zero {
		n.rt[row][col] = other
	}
}

func (n *Node) insertLeafLocked(other id.ID) {
	if n.leafCand[other] {
		return
	}
	n.leafCand[other] = true
	n.rebuildLeavesLocked()
}

// rebuildLeavesLocked recomputes the cw/ccw halves from the candidate pool
// and trims the pool to the members actually kept.
func (n *Node) rebuildLeavesLocked() {
	half := n.cfg.LeafSetSize / 2
	cand := make([]id.ID, 0, len(n.leafCand))
	for c := range n.leafCand {
		cand = append(cand, c)
	}
	byCW := append([]id.ID(nil), cand...)
	sort.Slice(byCW, func(i, j int) bool {
		return byCW[i].Sub(n.id).Cmp(byCW[j].Sub(n.id)) < 0
	})
	byCCW := append([]id.ID(nil), cand...)
	sort.Slice(byCCW, func(i, j int) bool {
		return n.id.Sub(byCCW[i]).Cmp(n.id.Sub(byCCW[j])) < 0
	})
	if len(byCW) > half {
		byCW = byCW[:half]
	}
	if len(byCCW) > half {
		byCCW = byCCW[:half]
	}
	n.leafCW = byCW
	n.leafCCW = byCCW

	kept := make(map[id.ID]bool, len(byCW)+len(byCCW))
	for _, x := range byCW {
		kept[x] = true
	}
	for _, x := range byCCW {
		kept[x] = true
	}
	n.leafCand = kept
}

func (n *Node) allLeavesLocked() []id.ID {
	seen := make(map[id.ID]bool, len(n.leafCW)+len(n.leafCCW))
	out := make([]id.ID, 0, len(n.leafCW)+len(n.leafCCW))
	for _, s := range [][]id.ID{n.leafCW, n.leafCCW} {
		for _, x := range s {
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
	}
	return out
}
