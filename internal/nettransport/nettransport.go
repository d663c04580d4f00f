// Package nettransport runs the overlay over real TCP sockets. It has
// one request/reply exchange — a gob header, then the message's Raw body
// as chunk frames (frame.go) — with one client function (exchange) and one
// server function (ServeConn). Network is a simnet.Transport built on
// them, with one loopback listener per registered node and an address
// registry local to the Network value, so the same DHT/Scribe/recovery
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
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/overload"
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
	// ErrDialExhausted reports that every dial attempt of the retry
	// policy failed. It always arrives wrapped together with ErrNodeDown,
	// so existing callers that treat dial failure as a dead peer keep
	// working while retry-aware callers can match the specific cause.
	ErrDialExhausted = errors.New("nettransport: dial retries exhausted")
)

// DialTimeout bounds connection establishment to a peer.
const DialTimeout = 2 * time.Second

// DialRetryPolicy tunes Call's dial loop: transient connection failures
// (a peer restarting its listener, accept-queue overflow under churn) are
// retried with capped exponential backoff plus jitter before the caller
// sees ErrDialExhausted. The zero value selects the defaults.
type DialRetryPolicy struct {
	// Attempts is the total number of dials tried (default 4).
	Attempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// attempt (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 250ms).
	MaxDelay time.Duration
}

func (p DialRetryPolicy) withDefaults() DialRetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	return p
}

// backoff returns the sleep before attempt number attempt (1-based count
// of failures so far): BaseDelay doubling per failure, capped at
// MaxDelay, plus up to 50% random jitter so synchronized callers
// (every node re-dialing one restarted peer) do not reconnect in
// lockstep.
func (p DialRetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 { // <=0 guards shift overflow
		d = p.MaxDelay
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// dialRetryN runs the dial loop for one address under the policy and
// reports how many attempts were made, for the transport's dial
// counters. A non-nil budget is charged one token per
// retry (attempts after the first); an empty budget cuts the loop short
// with ErrRetryBudgetExhausted so a storm of failing callers cannot
// multiply its own dial volume.
func dialRetryN(addr string, p DialRetryPolicy, budget *overload.Budget) (net.Conn, int, error) {
	p = p.withDefaults()
	var lastErr error
	for attempt := 1; attempt <= p.Attempts; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, DialTimeout)
		if err == nil {
			return conn, attempt, nil
		}
		lastErr = err
		if attempt < p.Attempts {
			if !budget.Allow() {
				return nil, attempt, fmt.Errorf("%w: %w after %d attempts: %v",
					ErrDialExhausted, ErrRetryBudgetExhausted, attempt, lastErr)
			}
			time.Sleep(p.backoff(attempt))
		}
	}
	return nil, p.Attempts, fmt.Errorf("%w after %d attempts: %v", ErrDialExhausted, p.Attempts, lastErr)
}

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
var wireErrors = [256]error{1: ErrOverloaded}

// RegisterError gives err a wire code (codes below 16 are this package's).
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
	// peerTimeout holds per-peer deadline overrides (escalation policy:
	// the supervisor tightens deadlines toward degraded peers so a slow
	// node sheds load instead of pinning callers for the full timeout).
	peerTimeout map[id.ID]time.Duration
	dial        DialRetryPolicy
	tracer      *obs.Tracer

	// Data-plane accounting (see frame.go): raw-body bytes and chunk
	// frames moved through this transport, and the destination-buffer pool.
	pool        bufPool
	rawBytes    atomic.Int64
	rawFrames   atomic.Int64
	rawMessages atomic.Int64
	// stallNanos accumulates sender time blocked on the credit window —
	// the data plane's backpressure signal, surfaced per-exchange as
	// PhaseStall spans when the message is traced.
	stallNanos atomic.Int64
	stallCount atomic.Int64

	// instr publishes the steady-state counter handles (instruments.go);
	// nil until SetMetrics.
	instr instrPtr

	// ovl holds the overload-control state: the degraded-service inbound
	// gate, per-peer circuit breakers, and the dial retry budget
	// (overload.go).
	ovl overloadState
}

// DataPlaneStats is a snapshot of the transport's raw-body accounting.
type DataPlaneStats struct {
	// RawBytes counts raw-body payload bytes moved (both directions).
	RawBytes int64
	// RawFrames counts chunk frames moved.
	RawFrames int64
	// RawMessages counts exchanges that carried a raw body.
	RawMessages int64
	// StallNanos is sender time spent blocked on the chunk credit window
	// (flow-control backpressure); StallCount is how many raw-body writes
	// stalled at least once.
	StallNanos int64
	StallCount int64
	// Pool reports destination-buffer reuse.
	Pool PoolStats
}

// DataPlane returns the transport's raw-body counters.
func (n *Network) DataPlane() DataPlaneStats {
	return DataPlaneStats{
		RawBytes:    n.rawBytes.Load(),
		RawFrames:   n.rawFrames.Load(),
		RawMessages: n.rawMessages.Load(),
		StallNanos:  n.stallNanos.Load(),
		StallCount:  n.stallCount.Load(),
		Pool:        PoolStats{Hits: n.pool.hits.Load(), Misses: n.pool.misses.Load()},
	}
}

var _ simnet.Transport = (*Network)(nil)

// New returns an empty TCP transport.
func New() *Network {
	return &Network{
		servers:     make(map[id.ID]*server),
		addrs:       make(map[id.ID]string),
		peerTimeout: make(map[id.ID]time.Duration),
		ioTimeout:   DefaultIOTimeout,
	}
}

// SetIOTimeout overrides the per-exchange read/write deadline (0
// disables deadlines — not recommended outside tests).
func (n *Network) SetIOTimeout(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ioTimeout = d
}

// SetPeerTimeout installs a per-peer deadline override for exchanges
// *to* nid, taking precedence over the global I/O timeout. d <= 0
// removes the override. Timeouts hit under an override are counted as
// slow-peer timeouts (sr3_net_slow_peer_timeouts_total), separating
// "degraded peer missed its tightened deadline" from "peer is dead"
// in /metrics.
func (n *Network) SetPeerTimeout(nid id.ID, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d <= 0 {
		delete(n.peerTimeout, nid)
		return
	}
	n.peerTimeout[nid] = d
}

// PeerTimeout reports the per-peer deadline override for nid, if any.
func (n *Network) PeerTimeout(nid id.ID) (time.Duration, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	d, ok := n.peerTimeout[nid]
	return d, ok
}

// SetDialRetryPolicy overrides the dial retry policy for future Calls.
func (n *Network) SetDialRetryPolicy(p DialRetryPolicy) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dial = p
}

// SetTracer attaches an observability tracer: credit-window stalls on
// traced exchanges are then emitted as PhaseStall spans parented on the
// message's span context. nil (the default) keeps stat-only accounting.
func (n *Network) SetTracer(tr *obs.Tracer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tracer = tr
}

func (n *Network) getTracer() *obs.Tracer {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.tracer
}

// noteStall folds one raw-body write's stall time into the counters and,
// when the exchange was traced, emits a retroactive PhaseStall span.
func (n *Network) noteStall(stallNs int64, traceID, spanID uint64) {
	if stallNs <= 0 {
		return
	}
	n.stallNanos.Add(stallNs)
	n.stallCount.Add(1)
	tr := n.getTracer()
	if tr == nil || traceID == 0 {
		return
	}
	end := tr.Now()
	tr.RecordSpan(obs.SpanContext{Trace: traceID, Span: spanID}, obs.PhaseStall,
		end.Add(-time.Duration(stallNs)), end, obs.Int("stall_ns", stallNs))
}

func (n *Network) dialPolicy() DialRetryPolicy {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.dial
}

func (n *Network) timeout() time.Duration {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ioTimeout
}

// timeoutFor resolves the effective deadline for an exchange to nid and
// whether it came from a per-peer override (the slow-peer marker).
func (n *Network) timeoutFor(nid id.ID) (time.Duration, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if d, ok := n.peerTimeout[nid]; ok {
		return d, true
	}
	return n.ioTimeout, false
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
// ended; closing conn is the caller's. The request's Raw is pooled once h
// returns, unless h took it (simnet.Message.TakeRaw).
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
	// otherwise — so read it even when the request will be refused.
	var reqRaw []byte
	var taken bool
	if req.RawLen != 0 {
		if req.RawLen < 0 || req.RawLen > maxRawLen {
			return // hostile header: drop the connection
		}
		reqRaw = n.pool.get(req.RawLen)
		defer func() {
			if !taken {
				n.pool.put(reqRaw)
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
	var reply simnet.Message
	var err error
	if n.ovl.degraded.Load() && ClassifyKind(req.Kind) == ClassIngest {
		// Degraded-service admission gate: while recovery holds the gate,
		// ingest-class requests are rejected before the handler runs.
		// Control traffic (heartbeats, routing) must pass or the node looks
		// dead, and recovery traffic is the point of degrading.
		if ni := n.instr.Load(); ni != nil {
			ni.rejectedIngest.Inc()
		}
		err = ErrOverloaded
	} else {
		msg := simnet.Message{
			Kind: req.Kind, Size: req.Size, Payload: req.Body, Raw: reqRaw,
			TraceID: req.TraceID, SpanID: req.SpanID,
		}
		msg.LendRaw(&taken)
		reply, err = h(req.From, msg)
	}
	// The deadline bounds I/O, not the handler: one that outlived it (an
	// adoption recovers and replays before it acknowledges) must still get
	// its reply out.
	fio.refresh()
	out := &wireReply{Kind: reply.Kind, Size: reply.Size, Body: reply.Payload, RawLen: len(reply.Raw),
		TraceID: reply.TraceID, SpanID: reply.SpanID}
	if err != nil {
		out = &wireReply{ErrMsg: err.Error(), Code: errorCode(err)}
	}
	// A handler that forwarded a pooled body attaches its recycler to the
	// reply; once the bytes are on the wire (or cannot be), return it.
	defer reply.ReleaseRaw()
	if err := writeHead(conn, nil, out); err != nil {
		return
	}
	if out.RawLen > 0 {
		var stallNs int64
		fio.stallNs = &stallNs
		frames, werr := fio.writeRaw(reply.Raw)
		n.rawFrames.Add(frames)
		if werr == nil {
			n.rawBytes.Add(int64(out.RawLen))
			n.rawMessages.Add(1)
			n.noteStall(stallNs, req.TraceID, req.SpanID)
		}
	}
}

// Call dials the destination and performs one request/reply exchange
// under the peer's effective deadline (per-peer override when set, the
// global I/O timeout otherwise).
func (n *Network) Call(from, to id.ID, msg simnet.Message) (simnet.Message, error) {
	timeout, slow := n.timeoutFor(to)
	return n.call(from, to, msg, timeout, slow)
}

// CallTimeout is Call with a per-call deadline override, taking
// precedence over both the per-peer and global timeouts. Callers use it
// to bound a single exchange to a peer they already suspect is slow; a
// timeout under the override is therefore counted as a slow-peer
// timeout.
func (n *Network) CallTimeout(from, to id.ID, msg simnet.Message, d time.Duration) (simnet.Message, error) {
	return n.call(from, to, msg, d, true)
}

func (n *Network) call(from, to id.ID, msg simnet.Message, timeout time.Duration, slow bool) (simnet.Message, error) {
	n.mu.RLock()
	src, srcOK := n.servers[from]
	addr, dstOK := n.addrs[to]
	dst, dstReg := n.servers[to]
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

	// Circuit breaker: an open breaker fails the call locally — no dial,
	// no backoff sleeps — until the cooldown admits a half-open probe.
	br := n.breakerFor(to)
	if !br.Acquire() {
		if ni := n.instr.Load(); ni != nil {
			ni.breakerFastFails.Inc()
		}
		return simnet.Message{}, fmt.Errorf("call to %s: %w: %w", to.Short(), ErrNodeDown, ErrBreakerOpen)
	}
	out, err := n.exchange(addr, from, msg, timeout, slow)
	// For the breaker a remote application error is a success: the peer
	// answered.
	var remote *remoteError
	n.noteOutcome(to, br, err != nil && !errors.As(err, &remote))
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

// Exchange dials the peer listening at addr — once or as the dial retry
// policy says — and performs one request/reply round trip with it: Magic,
// the request header, msg.Raw (or the concatenation of msg.RawSegs, written
// vectored) as chunk frames, then the same back. Every
// read and write must make progress within timeout (0 disables
// deadlines), so a handler gets that long to answer; a peer that accepts
// and then stalls yields ErrTimeout, an unreachable one ErrNodeDown. The
// reply's Raw is pooled: ReleaseRaw returns it.
func (n *Network) Exchange(addr string, from id.ID, msg simnet.Message, timeout time.Duration) (simnet.Message, error) {
	return n.exchange(addr, from, msg, timeout, false)
}

// exchange is Exchange; slow marks a deadline tightened for a suspect
// peer, which only changes the counter a timeout lands in.
func (n *Network) exchange(addr string, from id.ID, msg simnet.Message, timeout time.Duration, slow bool) (simnet.Message, error) {
	ni := n.instr.Load()
	if ni != nil {
		ni.calls.Inc()
	}
	conn, attempts, err := dialRetryN(addr, n.dialPolicy(), n.retryBudget())
	ni.noteDial(attempts, err)
	if err != nil {
		if errors.Is(err, ErrRetryBudgetExhausted) && ni != nil {
			ni.retrySuppressed.Inc()
		}
		// Wrap ErrNodeDown too: routing layers treat an unreachable peer
		// as dead, and retry exhaustion is exactly that signal.
		return simnet.Message{}, fmt.Errorf("%s: %w: %w", addr, ErrNodeDown, err)
	}
	defer func() { _ = conn.Close() }()
	ioErr := func(what string, err error) (simnet.Message, error) {
		if isTimeout(err) {
			n.noteTimeout(slow)
			return simnet.Message{}, fmt.Errorf("%s: %w: %v", addr, ErrTimeout, err)
		}
		return simnet.Message{}, fmt.Errorf("%s: %s: %w", addr, what, err)
	}
	fio := frameIO{conn: conn, r: bufio.NewReader(conn), timeout: timeout}
	fio.refresh()

	segs, rawLen := msg.RawSegs, 0
	if len(segs) == 0 && len(msg.Raw) > 0 {
		segs = [][]byte{msg.Raw}
	}
	for _, seg := range segs {
		rawLen += len(seg)
	}
	if err := writeHead(conn, []byte{Magic}, &wireRequest{From: from, Kind: msg.Kind, Size: msg.Size, Body: msg.Payload,
		RawLen: rawLen, TraceID: msg.TraceID, SpanID: msg.SpanID}); err != nil {
		return ioErr("encode", err)
	}
	if rawLen > 0 {
		var stallNs int64
		fio.stallNs = &stallNs
		frames, err := fio.writeRawVec(&vecScratch{}, nil, segs, rawLen)
		n.rawFrames.Add(frames)
		if err != nil {
			return ioErr("raw body", err)
		}
		n.rawBytes.Add(int64(rawLen))
		n.rawMessages.Add(1)
		n.noteStall(stallNs, msg.TraceID, msg.SpanID)
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
			n.pool.put(buf)
			return ioErr("raw body", err)
		}
		n.rawBytes.Add(int64(reply.RawLen))
		n.rawMessages.Add(1)
		out.Raw = buf
		out.SetFree(func() { n.pool.put(buf) })
	}
	return out, nil
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
