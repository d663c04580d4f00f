// Package simnet provides the network substrate for the SR3 reproduction.
//
// It contains two complementary pieces:
//
//   - An in-process message transport (Network) over which the DHT and
//     recovery layers exchange real messages between simulated nodes,
//     with failure injection and per-node traffic accounting. This is used
//     by correctness tests, examples and the stream runtime.
//
//   - A virtual-time fluid-flow simulator (Sim) that executes a DAG of
//     transfer/compute tasks under max-min fair bandwidth sharing and
//     reports completion times. This is used by the figure benchmarks,
//     where wall-clock timing of multi-gigabyte recoveries on one machine
//     would be meaningless.
package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"sr3/internal/id"
)

// Message is a unit of communication on the in-process transport. Size is
// the modeled wire size in bytes and is what the traffic counters record;
// Payload is the in-memory content.
type Message struct {
	Kind    string
	Size    int
	Payload any
	// Raw is an optional byte body carried outside Payload — the data
	// plane. Serializing transports (internal/nettransport) move it as
	// chunk frames read into one buffer instead of gob-encoding it inside
	// Payload; the in-process transport passes the slice through untouched
	// (zero-copy). Receivers must treat Raw as read-only and must not
	// retain it (or subslices of it) after the handler returns / after
	// calling ReleaseRaw — the backing buffer may be transport-owned and
	// recycled — unless they take it (TakeRaw). A handler may also put
	// bytes it holds into a reply's Raw and learn when the transport is
	// done with them: the transport runs the reply's SetFree func once the
	// reply is on the wire (or cannot be).
	Raw []byte
	// RawSegs is the send-side form of a body that already exists in
	// pieces, in a request or a reply: it travels as the concatenation of
	// the segments and the receiver sees it as Raw. Serializing transports
	// write the segments vectored, so the sender never builds the joined
	// copy; the in-process transport joins them into a buffer the receiver
	// owns — the copy a wire would make. A sender sets Raw or RawSegs, not
	// both.
	RawSegs [][]byte
	// TraceID/SpanID carry the sender's span context (internal/obs) so
	// one recovery yields one coherent distributed trace: remote handlers
	// parent their spans on the inbound context. Plain uint64s — not an
	// obs type — keep the transport free of upward imports, and untraced
	// messages leave them zero (gob omits zero fields, so the disabled
	// path adds nothing on the wire).
	TraceID uint64
	SpanID  uint64
	// free releases a transport-owned buffer backing Raw, or tells a
	// handler that lent Raw in a reply that it is done with (SetFree); nil
	// when Raw is caller-owned.
	free func()
	// taken is where TakeRaw tells the transport serving this request that
	// the handler kept Raw. Set by transports via LendRaw; nil when Raw is
	// not the transport's to recycle.
	taken *bool
}

// SetTrace stamps the message with a span context given as raw IDs.
func (m *Message) SetTrace(traceID, spanID uint64) {
	m.TraceID, m.SpanID = traceID, spanID
}

// SetFree attaches the func that runs once Raw is no longer read: the
// release of a transport-owned buffer, or a handler's release of bytes it
// lent a reply.
func (m *Message) SetFree(f func()) { m.free = f }

// ReleaseRaw releases the Raw buffer to its owning transport (if any) and
// clears Raw. The final consumer of a message calls it once nothing reads
// the bytes any more.
func (m *Message) ReleaseRaw() {
	_, free := m.TakeRaw()
	m.Raw, m.RawSegs = nil, nil
	if free != nil {
		free()
	}
}

// LendRaw marks a request's Raw as a buffer the serving transport releases
// once the handler returns — unless the handler takes it, which sets
// *taken.
func (m *Message) LendRaw(taken *bool) { m.taken = taken }

// TakeRaw returns the message's body as the caller's to keep for as long
// as it likes (read-only still: a sender in the same process may hold the
// same bytes), together with the body's release when a transport owns it:
// the transport no longer releases the buffer itself, and the keeper calls
// release once, when nothing reads the bytes any more. release is nil for
// a body no transport owns; such a buffer is the garbage collector's.
func (m *Message) TakeRaw() (raw []byte, release func()) {
	if m.taken != nil {
		*m.taken = true
	}
	release, m.free = m.free, nil
	return m.Raw, release
}

// JoinSegs turns a segmented body into the single buffer a receiver sees.
func (m *Message) JoinSegs() {
	if len(m.RawSegs) > 0 {
		m.Raw, m.RawSegs = bytes.Join(m.RawSegs, nil), nil
	}
}

// Handler processes one inbound message and returns the reply.
type Handler func(from id.ID, msg Message) (Message, error)

// Errors returned by the transport. Callers (notably DHT routing and
// recovery) match these to treat peers as failed.
var (
	ErrNodeDown    = errors.New("simnet: node is down")
	ErrUnknownNode = errors.New("simnet: unknown node")
	ErrDuplicate   = errors.New("simnet: node already registered")
)

type endpoint struct {
	handler Handler
	down    bool
}

// Network is the in-process transport: a registry of endpoints addressed by
// overlay ID. Calls are synchronous request/response; a call to a failed or
// unknown node returns an error, exactly as a TCP connect would.
type Network struct {
	mu        sync.RWMutex
	endpoints map[id.ID]*endpoint
	// chaos, when set, injects deterministic faults (drops, duplicates,
	// delays, partitions, crash schedules) into every Call. See chaos.go.
	chaos *Chaos

	statsMu   sync.Mutex
	sentBytes map[id.ID]int64
	sentMsgs  map[id.ID]int64
	kindBytes map[string]int64
}

// NewNetwork returns an empty transport.
func NewNetwork() *Network {
	return &Network{
		endpoints: make(map[id.ID]*endpoint),
		sentBytes: make(map[id.ID]int64),
		sentMsgs:  make(map[id.ID]int64),
		kindBytes: make(map[string]int64),
	}
}

// Register attaches a handler for node nid.
func (n *Network) Register(nid id.ID, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.endpoints[nid]; ok {
		return fmt.Errorf("register %s: %w", nid.Short(), ErrDuplicate)
	}
	n.endpoints[nid] = &endpoint{handler: h}
	return nil
}

// Fail marks a node as crashed: subsequent calls to it fail, and it sends
// nothing. The node's state is retained so Restore can bring it back.
func (n *Network) Fail(nid id.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[nid]; ok {
		ep.down = true
	}
}

// Restore brings a failed node back online.
func (n *Network) Restore(nid id.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[nid]; ok {
		ep.down = false
	}
}

// Alive reports whether nid is registered and not failed.
func (n *Network) Alive(nid id.ID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ep, ok := n.endpoints[nid]
	return ok && !ep.down
}

// Nodes returns the IDs of all registered nodes (up or down).
func (n *Network) Nodes() []id.ID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]id.ID, 0, len(n.endpoints))
	for nid := range n.endpoints {
		out = append(out, nid)
	}
	return out
}

// Call delivers msg from one node to another and returns the reply. The
// sender must be alive (a crashed node cannot send) and the receiver must
// be alive (otherwise ErrNodeDown, which routing layers treat as a probe
// failure).
func (n *Network) Call(from, to id.ID, msg Message) (Message, error) {
	// The down flags are snapshotted under the lock: chaos crash timers
	// flip them concurrently (Fail/Restore) while calls are in flight.
	n.mu.RLock()
	src, srcOK := n.endpoints[from]
	dst, dstOK := n.endpoints[to]
	srcDown := srcOK && src.down
	dstDown := dstOK && dst.down
	n.mu.RUnlock()

	if !srcOK {
		return Message{}, fmt.Errorf("call from %s: %w", from.Short(), ErrUnknownNode)
	}
	if srcDown {
		return Message{}, fmt.Errorf("call from %s: %w", from.Short(), ErrNodeDown)
	}
	if !dstOK {
		return Message{}, fmt.Errorf("call to %s: %w", to.Short(), ErrUnknownNode)
	}
	if dstDown {
		return Message{}, fmt.Errorf("call to %s: %w", to.Short(), ErrNodeDown)
	}

	n.statsMu.Lock()
	n.sentBytes[from] += int64(msg.Size)
	n.sentMsgs[from]++
	n.kindBytes[msg.Kind] += int64(msg.Size)
	n.statsMu.Unlock()

	dup, err := n.applyChaos(from, to, msg.Kind)
	if err != nil {
		return Message{}, err
	}
	msg.JoinSegs()
	if dup {
		// Duplicate delivery: the handler runs twice (as a retransmitted
		// datagram would make it); the first reply is discarded.
		if _, err := dst.handler(from, msg); err != nil {
			return Message{}, err
		}
	}
	reply, err := dst.handler(from, msg)
	if err != nil {
		return Message{}, err
	}
	reply.JoinSegs()

	n.statsMu.Lock()
	n.sentBytes[to] += int64(reply.Size)
	n.sentMsgs[to]++
	n.kindBytes[reply.Kind] += int64(reply.Size)
	n.statsMu.Unlock()
	return reply, nil
}

// TrafficStats is a snapshot of the transport's accounting.
type TrafficStats struct {
	BytesSentPerNode map[id.ID]int64
	MsgsSentPerNode  map[id.ID]int64
	BytesPerKind     map[string]int64
}

// Traffic returns a copy of the traffic counters.
func (n *Network) Traffic() TrafficStats {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	out := TrafficStats{
		BytesSentPerNode: make(map[id.ID]int64, len(n.sentBytes)),
		MsgsSentPerNode:  make(map[id.ID]int64, len(n.sentMsgs)),
		BytesPerKind:     make(map[string]int64, len(n.kindBytes)),
	}
	for k, v := range n.sentBytes {
		out.BytesSentPerNode[k] = v
	}
	for k, v := range n.sentMsgs {
		out.MsgsSentPerNode[k] = v
	}
	for k, v := range n.kindBytes {
		out.BytesPerKind[k] = v
	}
	return out
}

// ResetTraffic zeroes the traffic counters (used between measurement
// windows in the maintenance-overhead experiment).
func (n *Network) ResetTraffic() {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	n.sentBytes = make(map[id.ID]int64)
	n.sentMsgs = make(map[id.ID]int64)
	n.kindBytes = make(map[string]int64)
}

// Transport is the node-facing surface of a network: the DHT and the
// layers above it are written against this interface, so the same overlay
// code runs over the in-process Network or over real TCP sockets
// (internal/nettransport).
type Transport interface {
	// Register attaches a handler for a node.
	Register(nid id.ID, h Handler) error
	// Call delivers a message and returns the reply (synchronous RPC).
	Call(from, to id.ID, msg Message) (Message, error)
	// Alive reports whether a node is registered and reachable.
	Alive(nid id.ID) bool
}

var _ Transport = (*Network)(nil)
