package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sr3/internal/nettransport"
	"sr3/internal/obs"
	"sr3/internal/stream"
)

// relay is the egress half of one cross-process edge (fromComp on this
// node -> destComp on whichever node the view currently assigns it). It
// is installed in the local cell as a parallel-1 bolt subscribed to
// fromComp, so the producer's emissions flow through the normal queue
// plane (backpressure included) into the relay a run at a time
// (stream.BatchBolt), which batches them into wire frames (batch-codec
// records over nettransport.BatchConn).
//
// Delivery across failures: the relay retains a bounded window of the
// most recent tuples, encoded once at admission (see window). Every
// (re)connect — including the reroute after the control plane moves
// destComp — replays the whole retained window as replay-class traffic
// before resuming live sends. The receiver's per-key watermark dedupe
// makes the overlap exactly-once. When the window is full, entries
// already on the wire are trimmed first; if none is, the executor
// blocks, which is backpressure, not loss.
type relay struct {
	node     *Node
	fromComp string
	destComp string

	mu      sync.Mutex
	cond    *sync.Cond
	win     window
	closed  bool
	started bool          // start was called: done will be closed
	done    chan struct{} // closed when the sender loop exits
	// trace is the recovery span context stamped on outbound replay-class
	// frames (set by startCell during a traced adoption, so the replayed
	// output stitches the ingress node into the recovery's trace). It is
	// cleared once the first live ingest-class batch goes out — by then
	// the recovery's replay has drained.
	trace obs.SpanContext

	rec  []byte   // executor goroutine: the records of the run being admitted
	ends []int    // executor goroutine: where each record in rec ends
	segs [][]byte // sender goroutine: the frame being written, segs[0] its headers
	hdr  [frameHeaderLen + stream.BatchHeaderMax]byte
}

func newRelay(n *Node, fromComp, destComp string) *relay {
	r := &relay{node: n, fromComp: fromComp, destComp: destComp, done: make(chan struct{})}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// boltID names the relay inside its cell's topology.
func (r *relay) boltID() string { return "__relay/" + r.fromComp + "/" + r.destComp }

// nowNano is the relay's clock: one read per admitted run and one per
// frame taken, never per tuple. Tests swap it to count the reads.
var nowNano = func() int64 { return time.Now().UnixNano() }

func (r *relay) Execute(t stream.Tuple, emit stream.Emit) error {
	return r.ExecuteBatch([]stream.Tuple{t}, stream.ClassIngest, emit)
}

// ExecuteBatch encodes a run of tuples outside the lock, then takes it
// once and retains them for the wire under one admission stamp,
// preserving their class so a replayed tuple stays replay-class on the
// next hop. A tuple that cannot be encoded is dropped here, with the
// error, rather than poisoning every frame it would later ride in. Only
// the cell's executor goroutine for this bolt calls it.
func (r *relay) ExecuteBatch(tuples []stream.Tuple, class stream.TrafficClass, _ stream.Emit) error {
	var failed error
	recs, ends := r.rec[:0], r.ends[:0]
	for i := range tuples {
		var err error
		if recs, err = stream.AppendTupleRecord(recs, &tuples[i]); err != nil {
			r.node.logf("relay %s: dropped tuple: %v", r.boltID(), err)
			failed = err
			continue
		}
		ends = append(ends, len(recs))
	}
	r.rec, r.ends = recs[:0], ends[:0]
	limit := r.node.cfg.ReplayBuffer
	at := nowNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	from := 0
	for _, end := range ends {
		for !r.closed && r.win.len() >= limit && !r.win.trimmable() {
			// Full window, nothing trimmable: backpressure. The sender
			// must first see what this run has already admitted.
			r.cond.Signal()
			r.cond.Wait()
		}
		if r.closed {
			return failed
		}
		// Trim the oldest written entries to make room. Written is not saved
		// downstream: past the window bound only the source-regeneration
		// backstop covers them (DESIGN §14, ROADMAP 4(e)).
		for r.win.len() >= limit && r.win.trimmable() {
			r.win.trim()
		}
		r.win.admit(recs[from:end], class, at)
		from = end
	}
	r.cond.Signal()
	return failed
}

// setTrace arms the relay with a recovery trace context (see the trace
// field); a zero context disarms it.
func (r *relay) setTrace(tc obs.SpanContext) {
	r.mu.Lock()
	r.trace = tc
	r.mu.Unlock()
}

// start launches the sender loop.
func (r *relay) start() {
	r.mu.Lock()
	r.started = true
	r.mu.Unlock()
	go r.run()
}

// close stops the relay and waits for its sender, if one was started (a
// cell whose recovery failed is torn down with its relays never run).
func (r *relay) close() {
	r.mu.Lock()
	r.closed = true
	started := r.started
	r.cond.Broadcast()
	r.mu.Unlock()
	if started {
		<-r.done
	}
}

// run is the sender loop: resolve destComp's owner from the node's
// current view, connect, replay the retained window, then stream new
// entries; any error or ownership change tears the connection down and
// the loop starts over.
func (r *relay) run() {
	defer close(r.done)
	var conn *flowConn
	defer func() {
		if conn != nil {
			conn.close()
		}
	}()
	// A refused or failed connect is retried from relayBackoffMin, doubling
	// to relayBackoffMax: at formation the peer's cell is milliseconds from
	// ready, and a fixed pause would put every flow on the same lattice.
	backoff := relayBackoffMin
	retry := func() (closed bool) {
		closed = r.pause(backoff)
		backoff = min(2*backoff, relayBackoffMax)
		return closed
	}
	for {
		frame, n, ok := r.take()
		if !ok {
			return
		}
		owner, addr := r.node.ownerOf(r.destComp)
		if conn != nil && conn.owner != owner {
			conn.close() // rerouted: reconnect to the adopter
			conn = nil
		}
		if conn == nil {
			c, err := r.connect(owner, addr)
			if err != nil {
				r.unsend(n)
				r.node.logf("relay %s: connect %s (%s): %v", r.boltID(), owner, addr, err)
				if retry() {
					return
				}
				continue
			}
			conn, backoff = c, relayBackoffMin
			// Fresh connection: everything retained is in doubt — mark it
			// unsent and let the next iterations push it as replay class.
			r.unsendAll()
			continue
		}
		if err := conn.bc.WriteBatch(frame...); err != nil {
			r.node.logf("relay %s: send to %s: %v", r.boltID(), addr, err)
			conn.close()
			conn = nil
			r.unsendAll()
			if retry() {
				return
			}
		}
	}
}

// The relay's reconnect backoff range.
const (
	relayBackoffMin = 2 * time.Millisecond
	relayBackoffMax = 50 * time.Millisecond
)

// take blocks for the next run of unsent same-class tuples (bounded by
// the spec batch size), marks them sent and returns them as one wire
// frame: the flow and batch headers, then the record bytes as they lie
// in the window. ok=false on close. A resend after reconnect is forced
// to replay class — only the headers differ from the first send — and
// carries the recovery's span context if one is armed; the first live
// frame disarms it. The frame's event-time basis is its oldest tuple's
// enqueue time. The frame is valid until the next take, unsend or
// unsendAll; calling take again also declares it written, which is
// what lets the executor trim it.
func (r *relay) take() (frame [][]byte, n int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.win.wrote() {
		r.cond.Broadcast() // the previous frame became trimmable
	}
	for !r.closed && !r.win.unsent() {
		r.cond.Wait()
	}
	if r.closed {
		return nil, 0, false
	}
	segs, n, cls, oldestNs := r.win.take(r.node.spec.Batch, append(r.segs[:0], nil))
	var tc obs.SpanContext
	if cls == stream.ClassReplay {
		tc = r.trace
	} else {
		r.trace = obs.SpanContext{}
	}
	hdr := appendFrameHeader(r.hdr[:0], nowNano(), oldestNs, tc)
	segs[0] = stream.AppendBatchHeader(hdr, cls, n)
	r.segs = segs
	return segs, n, true
}

// unsend returns the last n taken entries to the unsent region (send
// failed before the bytes hit the wire).
func (r *relay) unsend(n int) {
	r.mu.Lock()
	r.win.unsend(n)
	r.cond.Broadcast()
	r.mu.Unlock()
}

// unsendAll marks the whole retained window unsent and flags it as the
// reconnect replay window (resent as replay class).
func (r *relay) unsendAll() {
	r.mu.Lock()
	r.win.unsendAll()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// pause sleeps d between reconnect attempts, in slices short enough to
// notice a close; true means closed.
func (r *relay) pause(d time.Duration) bool {
	for deadline := time.Now().Add(d); ; {
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		left := time.Until(deadline)
		if closed || left <= 0 {
			return closed
		}
		time.Sleep(min(left, 5*time.Millisecond))
	}
}

// flowConn is one established tuple stream to a peer.
type flowConn struct {
	owner string
	raw   net.Conn
	bc    *nettransport.BatchConn
}

func (r *relay) connect(owner, addr string) (_ *flowConn, err error) {
	if owner == "" || addr == "" {
		return nil, fmt.Errorf("no live owner for %s", r.destComp)
	}
	raw, err := net.DialTimeout("tcp", addr, rpcTimeout)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = raw.Close()
		}
	}()
	if _, err := raw.Write([]byte{magicFlow}); err != nil {
		return nil, err
	}
	hello := flowHello{FromNode: r.node.cfg.Name, FromComp: r.fromComp, DestComp: r.destComp}
	if err := writeFlowHello(raw, hello); err != nil {
		return nil, err
	}
	// Nothing is sent, so nothing is marked written, until the owner says
	// it has a cell for the edge.
	var answer [1]byte
	_ = raw.SetReadDeadline(time.Now().Add(rpcTimeout))
	if _, err := io.ReadFull(raw, answer[:]); err != nil {
		return nil, err
	}
	if answer[0] != flowAccepted {
		return nil, fmt.Errorf("%s has no cell for %s yet", owner, r.destComp)
	}
	_ = raw.SetReadDeadline(time.Time{})
	return &flowConn{owner: owner, raw: raw, bc: nettransport.NewBatchConn(raw, 30*time.Second)}, nil
}

func (c *flowConn) close() { _ = c.raw.Close() }

// writeFlowHello frames the hello with an explicit length prefix so the
// receiver can read exactly its bytes — a gob decoder reading the
// connection directly could buffer ahead into the batch frames.
func writeFlowHello(conn net.Conn, h flowHello) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&h); err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(payload.Len()))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(payload.Bytes())
	return err
}

func readFlowHello(conn net.Conn) (flowHello, error) {
	var h flowHello
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return h, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > 1<<20 {
		return h, fmt.Errorf("flow hello %d bytes exceeds cap", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return h, err
	}
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&h)
	return h, err
}
