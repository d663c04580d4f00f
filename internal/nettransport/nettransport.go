// Package nettransport runs the overlay over real TCP sockets. It has
// one request/reply exchange — a gob header, then the message's Raw body
// as chunk frames (frame.go), paced by TCP's own flow control — with one
// client function (Exchange) and one server function (ServeConn). Network is a simnet.Transport built on
// them, with one loopback listener per registered node and an address
// registry local to the Network value, so the same DHT and recovery
// code that runs in-process also runs across actual network connections;
// the sr3node daemon, which owns its listener and finds its peers'
// addresses in the cluster view, calls Exchange and ServeConn directly.
package nettransport

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sr3/internal/id"
	"sr3/internal/simnet"
)

// Errors (mirroring the in-process transport's contract).
var (
	ErrNodeDown    = errors.New("nettransport: node is down")
	ErrUnknownNode = errors.New("nettransport: unknown node")
	ErrDuplicate   = errors.New("nettransport: node already registered")
	// ErrTimeout reports a request/reply exchange exceeding the I/O
	// deadline: the peer accepted the connection but stalled. Callers
	// treat it like a dead peer and fail over.
	ErrTimeout = errors.New("nettransport: i/o timeout")
)

// DialTimeout bounds connection establishment to a peer. An exchange
// dials once: a caller that wants another attempt runs its own loop (the
// daemon's join backoff, relay reconnect and heartbeat tick, recovery's
// failover ladder).
const DialTimeout = 2 * time.Second

// DefaultIOTimeout bounds one whole request/reply exchange on a
// connection (both sides). Without it a hung peer — accepted connection,
// no reply — would block a recovery forever; with it the caller gets
// ErrTimeout and the failover ladder takes over.
const DefaultIOTimeout = 10 * time.Second

// maxRawLen caps an announced raw-body length (1 GiB): far above any
// shard batch this system moves, tight enough that a hostile header
// cannot demand an absurd allocation. A variable only so the fuzz target
// can check the cap at a size it can afford.
var maxRawLen = 1 << 30

// Magic is the first byte of every exchange connection, ahead of the
// request header: a listener that shares its port with another protocol
// (sr3node's tuple streams) reads it to pick the plane and hands the rest
// of the connection to ServeConn.
const Magic = 'C'

// wireRequest is the on-the-wire request frame. RawLen announces a chunked
// raw body following the gob frame (see frame.go).
type wireRequest struct {
	From   id.ID
	Kind   string
	Size   int
	Body   any
	RawLen int
	// TraceID/SpanID carry the sender's span context across the wire
	// (see simnet.Message); zero for untraced traffic, which gob then
	// omits entirely.
	TraceID uint64
	SpanID  uint64
}

// wireReply is the on-the-wire reply frame. A handler error travels as
// ErrMsg, plus Code when it is one a caller acts on (see RegisterError).
type wireReply struct {
	Kind    string
	Size    int
	Body    any
	ErrMsg  string
	Code    uint8
	RawLen  int
	TraceID uint64
	SpanID  uint64
}

// wireErrors are the errors that keep their identity across the wire,
// by code: a handler error matching one travels as its code and the
// caller gets the same sentinel back, wrapped, so errors.Is holds on both
// sides and nobody compares text that crossed a socket.
var wireErrors [256]error

// RegisterError gives err a wire code (codes below 16 are reserved for
// this package).
// Like gob.Register it is for init functions, identically on both ends.
func RegisterError(code uint8, err error) {
	if prev := wireErrors[code]; prev != nil && prev != err {
		panic(fmt.Sprintf("nettransport: wire error code %d registered for both %q and %q", code, prev, err))
	}
	wireErrors[code] = err
}

// errorCode returns the wire code of the registered error err wraps, or 0.
func errorCode(err error) uint8 {
	for code, e := range wireErrors[:] {
		if e != nil && errors.Is(err, e) {
			return uint8(code)
		}
	}
	return 0
}

type server struct {
	ln      net.Listener
	handler simnet.Handler
	down    bool
	wg      sync.WaitGroup
}

// Network is a TCP-backed simnet.Transport: every registered node gets a
// loopback listener, and Call dials the peer and exchanges one gob frame
// pair per request.
type Network struct {
	mu        sync.RWMutex
	servers   map[id.ID]*server
	addrs     map[id.ID]string
	closed    bool
	ioTimeout time.Duration

	// Data-plane accounting (see frame.go): raw-body bytes and chunk
	// frames moved through this transport, and the destination-buffer pool.
	pool        bufPool
	rawBytes    atomic.Int64
	rawFrames   atomic.Int64
	rawMessages atomic.Int64

	// instr publishes the steady-state counter handles (instruments.go);
	// nil until SetMetrics.
	instr instrPtr
}

// DataPlaneStats is a snapshot of the transport's raw-body accounting.
type DataPlaneStats struct {
	// RawBytes counts raw-body payload bytes moved (both directions).
	RawBytes int64
	// RawFrames counts chunk frames moved.
	RawFrames int64
	// RawMessages counts exchanges that carried a raw body.
	RawMessages int64
	// Pool reports destination-buffer reuse.
	Pool PoolStats
}

// DataPlane returns the transport's raw-body counters.
func (n *Network) DataPlane() DataPlaneStats {
	return DataPlaneStats{
		RawBytes:    n.rawBytes.Load(),
		RawFrames:   n.rawFrames.Load(),
		RawMessages: n.rawMessages.Load(),
		Pool:        n.pool.stats(),
	}
}

var _ simnet.Transport = (*Network)(nil)

// New returns an empty TCP transport.
func New() *Network {
	return &Network{
		servers:   make(map[id.ID]*server),
		addrs:     make(map[id.ID]string),
		ioTimeout: DefaultIOTimeout,
	}
}

// SetIOTimeout overrides the per-exchange read/write deadline (0
// disables deadlines — not recommended outside tests).
func (n *Network) SetIOTimeout(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ioTimeout = d
}

func (n *Network) timeout() time.Duration {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ioTimeout
}

// isTimeout reports whether err is a network deadline expiry (gob wraps
// the underlying net.Error, so unwrap via errors.As).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Register starts a listener for the node and serves its handler.
func (n *Network) Register(nid id.ID, h simnet.Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errors.New("nettransport: network closed")
	}
	if _, ok := n.servers[nid]; ok {
		return fmt.Errorf("register %s: %w", nid.Short(), ErrDuplicate)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("nettransport: listen: %w", err)
	}
	srv := &server{ln: ln, handler: h}
	n.servers[nid] = srv
	n.addrs[nid] = ln.Addr().String()
	srv.wg.Add(1)
	go n.serve(srv)
	return nil
}

func (n *Network) serve(srv *server) {
	defer srv.wg.Done()
	// A request still in flight when its node is failed gets the answer a
	// dead node gives.
	handler := func(from id.ID, msg simnet.Message) (simnet.Message, error) {
		n.mu.RLock()
		down := srv.down
		n.mu.RUnlock()
		if down {
			return simnet.Message{}, ErrNodeDown
		}
		return srv.handler(from, msg)
	}
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			return // listener closed (Fail or Close)
		}
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			defer func() { _ = conn.Close() }()
			if d := n.timeout(); d > 0 {
				_ = conn.SetReadDeadline(time.Now().Add(d))
			}
			var magic [1]byte
			if _, err := io.ReadFull(conn, magic[:]); err != nil || magic[0] != Magic {
				return
			}
			n.ServeConn(conn, handler)
		}()
	}
}

// ServeConn serves one exchange on an accepted connection whose Magic
// byte has been read: decode the request, drain its raw body, run h,
// write the reply. It returns when the exchange is over, however it
// ended; closing conn is the caller's. The request's Raw is released once
// the reply is written, unless h took it (simnet.Message.TakeRaw), in
// which case the release TakeRaw handed h does it. A reply's Raw or
// RawSegs is written vectored, and its SetFree func runs once the reply is
// on the wire or cannot be.
func (n *Network) ServeConn(conn net.Conn, h simnet.Handler) {
	// The I/O timeout bounds every read and write, so a client that
	// connects and never sends (or never drains the reply) cannot pin this
	// goroutine. Raw-body frames refresh it per chunk (frame.go): it is an
	// idle timeout, not a budget for the transfer.
	fio := frameIO{conn: conn, r: bufio.NewReader(conn), timeout: n.timeout()}
	fio.refresh()
	var req wireRequest
	if err := gob.NewDecoder(fio.r).Decode(&req); err != nil {
		return
	}
	// The raw body must be drained before any reply can go out — the
	// client writes it unconditionally and the stream cannot resync
	// otherwise — so read it even when the handler will refuse it.
	var reqRaw []byte
	var taken bool
	if req.RawLen != 0 {
		if req.RawLen < 0 || req.RawLen > maxRawLen {
			return // hostile header: drop the connection
		}
		reqRaw = n.pool.get(req.RawLen)
		defer func() {
			if !taken {
				n.pool.release(reqRaw)
			}
		}()
		frames, err := fio.readRaw(reqRaw)
		n.rawFrames.Add(frames)
		if err != nil {
			return
		}
		n.rawBytes.Add(int64(req.RawLen))
		n.rawMessages.Add(1)
	}
	msg := simnet.Message{
		Kind: req.Kind, Size: req.Size, Payload: req.Body, Raw: reqRaw,
		TraceID: req.TraceID, SpanID: req.SpanID,
	}
	msg.LendRaw(&taken)
	if reqRaw != nil {
		msg.SetFree(func() { n.pool.release(reqRaw) })
	}
	reply, err := h(req.From, msg)
	// The deadline bounds I/O, not the handler: one that outlived it (an
	// adoption recovers and replays before it acknowledges) must still get
	// its reply out.
	fio.refresh()
	segs, rawLen := bodySegs(reply)
	out := &wireReply{Kind: reply.Kind, Size: reply.Size, Body: reply.Payload, RawLen: rawLen,
		TraceID: reply.TraceID, SpanID: reply.SpanID}
	if err != nil {
		out = &wireReply{ErrMsg: err.Error(), Code: errorCode(err)}
	}
	// A handler that forwarded a received body attaches its release to the
	// reply, one that lent bytes it holds the release of them; once the
	// bytes are on the wire (or cannot be), run it.
	defer reply.ReleaseRaw()
	if err := writeHead(conn, nil, out); err != nil {
		return
	}
	if out.RawLen > 0 {
		frames, werr := fio.writeRawVec(&vecScratch{}, nil, segs, out.RawLen)
		n.rawFrames.Add(frames)
		if werr == nil {
			n.rawBytes.Add(int64(out.RawLen))
			n.rawMessages.Add(1)
		}
	}
}

// Call dials the destination and performs one request/reply exchange
// under the transport's I/O timeout.
func (n *Network) Call(from, to id.ID, msg simnet.Message) (simnet.Message, error) {
	n.mu.RLock()
	src, srcOK := n.servers[from]
	addr, dstOK := n.addrs[to]
	dst, dstReg := n.servers[to]
	timeout := n.ioTimeout
	n.mu.RUnlock()

	if !srcOK {
		return simnet.Message{}, fmt.Errorf("call from %s: %w", from.Short(), ErrUnknownNode)
	}
	if src.down {
		return simnet.Message{}, fmt.Errorf("call from %s: %w", from.Short(), ErrNodeDown)
	}
	if !dstOK || !dstReg {
		return simnet.Message{}, fmt.Errorf("call to %s: %w", to.Short(), ErrUnknownNode)
	}
	if dst.down {
		// The listener is closed, but fail fast rather than waiting for
		// a connection-refused round trip.
		return simnet.Message{}, fmt.Errorf("call to %s: %w", to.Short(), ErrNodeDown)
	}

	out, err := n.Exchange(addr, from, msg, timeout)
	if err != nil {
		err = fmt.Errorf("call to %s: %w", to.Short(), err)
	}
	return out, err
}

// writeHead gob-encodes one frame header behind prefix and sends the two
// in as few writes as they fit: a fresh encoder emits a message per type
// description before the value, each a packet of its own otherwise.
func writeHead(conn net.Conn, prefix []byte, head any) error {
	w := bufio.NewWriter(conn)
	_, _ = w.Write(prefix) // buffered: Flush reports the error
	if err := gob.NewEncoder(w).Encode(head); err != nil {
		return err
	}
	return w.Flush()
}

// remoteError is the error the peer's handler returned. is names the
// registered error it wrapped there (RegisterError), nil for any other.
type remoteError struct {
	msg string
	is  error
}

func (e *remoteError) Error() string { return "remote: " + e.msg }
func (e *remoteError) Unwrap() error { return e.is }

// Exchange dials the peer listening at addr once and performs one
// request/reply round trip with it: Magic, the request header, msg.Raw
// (or the concatenation of msg.RawSegs, written vectored) as chunk frames,
// then the same back. Every read and write must make progress within
// timeout (0 disables deadlines), so a handler gets that long to answer;
// a peer that accepts and then stalls yields ErrTimeout, an unreachable
// one ErrNodeDown. A reply's Raw is the transport's: ReleaseRaw pools one
// under 1 MiB and unmaps a bigger one.
func (n *Network) Exchange(addr string, from id.ID, msg simnet.Message, timeout time.Duration) (simnet.Message, error) {
	ni := n.instr.Load()
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	ni.noteDial(err)
	if err != nil {
		// Routing layers treat an unreachable peer as dead.
		return simnet.Message{}, fmt.Errorf("%s: %w: %v", addr, ErrNodeDown, err)
	}
	defer func() { _ = conn.Close() }()
	ioErr := func(what string, err error) (simnet.Message, error) {
		if isTimeout(err) {
			ni.noteTimeout()
			return simnet.Message{}, fmt.Errorf("%s: %w: %v", addr, ErrTimeout, err)
		}
		return simnet.Message{}, fmt.Errorf("%s: %s: %w", addr, what, err)
	}
	fio := frameIO{conn: conn, r: bufio.NewReader(conn), timeout: timeout}
	fio.refresh()

	segs, rawLen := bodySegs(msg)
	if err := writeHead(conn, []byte{Magic}, &wireRequest{From: from, Kind: msg.Kind, Size: msg.Size, Body: msg.Payload,
		RawLen: rawLen, TraceID: msg.TraceID, SpanID: msg.SpanID}); err != nil {
		return ioErr("encode", err)
	}
	if rawLen > 0 {
		frames, err := fio.writeRawVec(&vecScratch{}, nil, segs, rawLen)
		n.rawFrames.Add(frames)
		if err != nil {
			return ioErr("raw body", err)
		}
		n.rawBytes.Add(int64(rawLen))
		n.rawMessages.Add(1)
	}
	var reply wireReply
	if err := gob.NewDecoder(fio.r).Decode(&reply); err != nil {
		return ioErr("decode", err)
	}
	if reply.ErrMsg != "" {
		return simnet.Message{}, fmt.Errorf("%s: %w", addr, &remoteError{msg: reply.ErrMsg, is: wireErrors[reply.Code]})
	}
	out := simnet.Message{Kind: reply.Kind, Size: reply.Size, Payload: reply.Body,
		TraceID: reply.TraceID, SpanID: reply.SpanID}
	if reply.RawLen != 0 {
		if reply.RawLen < 0 || reply.RawLen > maxRawLen {
			return simnet.Message{}, fmt.Errorf("%s: raw body of %d bytes exceeds cap", addr, reply.RawLen)
		}
		buf := n.pool.get(reply.RawLen)
		frames, err := fio.readRaw(buf)
		n.rawFrames.Add(frames)
		if err != nil {
			n.pool.release(buf)
			return ioErr("raw body", err)
		}
		n.rawBytes.Add(int64(reply.RawLen))
		n.rawMessages.Add(1)
		out.Raw = buf
		out.SetFree(func() { n.pool.release(buf) })
	}
	return out, nil
}

// bodySegs returns the segments a message's raw body travels as — RawSegs,
// or Raw as the one segment — and their summed length.
func bodySegs(m simnet.Message) ([][]byte, int) {
	segs, n := m.RawSegs, 0
	if len(segs) == 0 && len(m.Raw) > 0 {
		segs = [][]byte{m.Raw}
	}
	for _, seg := range segs {
		n += len(seg)
	}
	return segs, n
}

// Alive reports whether nid is registered and its listener is serving.
func (n *Network) Alive(nid id.ID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	srv, ok := n.servers[nid]
	return ok && !srv.down
}

// Fail crashes a node: its listener closes and callers get connection
// errors, exactly like a process kill.
func (n *Network) Fail(nid id.ID) {
	n.mu.Lock()
	srv, ok := n.servers[nid]
	if ok && !srv.down {
		srv.down = true
		_ = srv.ln.Close()
	}
	n.mu.Unlock()
}

// Addr returns a node's TCP address (for out-of-band bootstrap).
func (n *Network) Addr(nid id.ID) (string, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	a, ok := n.addrs[nid]
	return a, ok
}

// Close shuts down every listener and waits for in-flight handlers.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	servers := make([]*server, 0, len(n.servers))
	for _, srv := range n.servers {
		if !srv.down {
			srv.down = true
			_ = srv.ln.Close()
		}
		servers = append(servers, srv)
	}
	n.mu.Unlock()
	for _, srv := range servers {
		srv.wg.Wait()
	}
}
