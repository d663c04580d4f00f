package cluster

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sr3/internal/metrics"
	"sr3/internal/nettransport"
	"sr3/internal/stream"
)

// relayTestNode is as much of a Node as a relay touches: a name, the
// window bound, a logger, and a view assigning the destination component
// "dst" to one live peer at peerAddr.
func relayTestNode(replayBuffer int, peerAddr string, logTo io.Writer) *Node {
	return &Node{
		cfg:    NodeConfig{Name: "n1", ReplayBuffer: replayBuffer},
		logger: log.New(logTo, "", 0),
		view: View{
			Members: []Member{{Name: "peer", Addr: peerAddr, Alive: true}},
			Assign:  map[string]string{"dst": "peer"},
		},
	}
}

// rxFrame is one wire frame as the ingress side sees it.
type rxFrame struct {
	conn   int // accept order of the connection it arrived on
	class  stream.TrafficClass
	tuples []stream.Tuple
}

// flowSink is an in-test flow listener: it speaks the ingress half of
// the tuple-stream protocol (magic byte, hello, header + batch frames)
// and hands every decoded frame to the test.
type flowSink struct {
	ln     net.Listener
	frames chan rxFrame
	done   chan struct{}
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func newFlowSink(t *testing.T) *flowSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &flowSink{ln: ln, frames: make(chan rxFrame), done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			idx := len(s.conns)
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				if err := s.serve(conn, idx); err != nil {
					t.Errorf("flow sink conn %d: %v", idx, err)
				}
			}()
		}
	}()
	t.Cleanup(func() {
		close(s.done)
		_ = ln.Close()
		s.mu.Lock()
		for _, c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return s
}

// serve reads frames until the connection ends; only a protocol
// violation is an error.
func (s *flowSink) serve(conn net.Conn, idx int) error {
	var magic [1]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return nil
	}
	if magic[0] != magicFlow {
		return fmt.Errorf("magic %q, want flow", magic[0])
	}
	hello, err := readFlowHello(conn)
	if err != nil {
		return nil
	}
	if hello.FromNode != "n1" || hello.FromComp != "src" || hello.DestComp != "dst" {
		return fmt.Errorf("hello %+v", hello)
	}
	if _, err := conn.Write([]byte{flowAccepted}); err != nil {
		return nil
	}
	bc := nettransport.NewBatchConn(conn, 30*time.Second)
	for {
		body, free, err := bc.ReadBatch()
		if err != nil {
			return nil
		}
		_, _, _, payload, err := parseFrameHeader(body)
		if err != nil {
			return err
		}
		tuples, class, err := stream.DecodeTupleBatch(payload)
		free()
		if err != nil {
			return err
		}
		select {
		case s.frames <- rxFrame{conn: idx, class: class, tuples: tuples}:
		case <-s.done:
			return nil
		}
	}
}

// kill closes the idx-th accepted connection from the receiving side.
func (s *flowSink) kill(idx int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.conns[idx].Close()
}

func (s *flowSink) addr() string { return s.ln.Addr().String() }

// next waits for one frame.
func (s *flowSink) next(t *testing.T) rxFrame {
	t.Helper()
	select {
	case f := <-s.frames:
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("no frame within 10s")
		return rxFrame{}
	}
}

// seqTuple is test tuple i: its index rides in Values[0] and in Ts.
func seqTuple(i int, pad any) stream.Tuple {
	return stream.Tuple{Stream: "s", Ts: int64(i), Values: []any{int64(i), pad}}
}

func seqOf(t *testing.T, tu stream.Tuple) int {
	t.Helper()
	if len(tu.Values) != 2 || tu.Stream != "s" {
		t.Fatalf("tuple %+v is not a test tuple", tu)
	}
	i, ok := tu.Values[0].(int64)
	if !ok || tu.Ts != i {
		t.Fatalf("tuple %+v: index and Ts disagree", tu)
	}
	return int(i)
}

func admit(t *testing.T, r *relay, tu stream.Tuple, class stream.TrafficClass) {
	t.Helper()
	if err := r.ExecuteBatch([]stream.Tuple{tu}, class, nil); err != nil {
		t.Fatal(err)
	}
}

// recordBytes is what tuples take up as records in a frame.
func recordBytes(t *testing.T, tuples []stream.Tuple) int {
	t.Helper()
	var rec []byte
	for i := range tuples {
		var err error
		if rec, err = stream.AppendTupleRecord(rec, &tuples[i]); err != nil {
			t.Fatal(err)
		}
	}
	return len(rec)
}

// takeDecoded takes one frame from a window directly and decodes it the
// way the wire would carry it: batch header + record slices.
func takeDecoded(t *testing.T, w *window) ([]stream.Tuple, stream.TrafficClass) {
	t.Helper()
	segs, n, class, _ := w.take(nil)
	frame := stream.AppendBatchHeader(nil, class, n)
	for _, s := range segs {
		frame = append(frame, s...)
	}
	tuples, decoded, err := stream.DecodeTupleBatch(frame)
	if err != nil {
		t.Fatalf("frame taken from the window: %v", err)
	}
	if len(tuples) != n || decoded != class {
		t.Fatalf("frame decodes to %d class-%v tuples, window said %d class-%v", len(tuples), decoded, n, class)
	}
	return tuples, class
}

// TestRelayDeliversInOrderAndRetainsSuffix pushes ten windows' worth of
// mixed-class tuples — sized so the window's chunks are recycled many
// times over, one record larger than a chunk — through a small window
// and checks delivery order, one class per frame, and that exactly the
// last ReplayBuffer tuples are what a replay would send.
func TestRelayDeliversInOrderAndRetainsSuffix(t *testing.T) {
	const window, total = 64, 640
	sink := newFlowSink(t)
	r := newRelay(relayTestNode(window, sink.addr(), io.Discard), "src", "dst")
	r.start()
	defer r.close()

	classOf := func(i int) stream.TrafficClass {
		if i%11 < 4 {
			return stream.ClassReplay
		}
		return stream.ClassIngest
	}
	tupleOf := func(i int) stream.Tuple {
		switch {
		case i == 100:
			return seqTuple(i, bytes.Repeat([]byte{byte(i)}, windowChunkBytes+5000))
		case i%7 == 0:
			return seqTuple(i, strings.Repeat("x", 3000))
		default:
			return seqTuple(i, strings.Repeat("y", 1200))
		}
	}

	// A fresh connection sends what it finds retained as replay class, so
	// let the first tuple establish the connection before the rest go.
	admit(t, r, tupleOf(0), classOf(0))
	if f := sink.next(t); len(f.tuples) != 1 || seqOf(t, f.tuples[0]) != 0 || f.class != stream.ClassReplay {
		t.Fatalf("first frame = %d tuples, class %v; want tuple 0 as replay", len(f.tuples), f.class)
	}
	go func() {
		// The way the executor hands them over: runs of one class.
		for i := 1; i < total; {
			run := []stream.Tuple{tupleOf(i)}
			for j := i + 1; j < total && classOf(j) == classOf(i); j++ {
				run = append(run, tupleOf(j))
			}
			if err := r.ExecuteBatch(run, classOf(i), nil); err != nil {
				t.Errorf("admit %d..%d: %v", i, i+len(run)-1, err)
				return
			}
			i += len(run)
		}
	}()
	for want := 1; want < total; {
		f := sink.next(t)
		if len(f.tuples) == 0 || recordBytes(t, f.tuples[:len(f.tuples)-1]) >= windowChunkBytes {
			t.Fatalf("frame of %d tuples runs past a window chunk of bytes", len(f.tuples))
		}
		for _, tu := range f.tuples {
			if got := seqOf(t, tu); got != want {
				t.Fatalf("tuple %d arrived, want %d", got, want)
			}
			if f.class != classOf(want) {
				t.Fatalf("tuple %d rode a class-%v frame, admitted as %v", want, f.class, classOf(want))
			}
			want++
		}
	}

	r.close() // the sender has exited: the window is the test's alone
	w := &r.win
	if w.len() != window || w.recs.head != total-window {
		t.Fatalf("retained %d tuples from %d, want %d from %d", w.len(), w.recs.head, window, total-window)
	}
	if w.chunks.head == 0 {
		t.Fatal("no chunk was ever released")
	}
	if w.chunks.n > 6 {
		t.Fatalf("%d chunks hold %d tuples of at most 3 KB", w.chunks.n, window)
	}
	// What a reconnect would send: the whole window, as replay class.
	w.unsendAll()
	want := total - window
	for w.unsent() {
		tuples, class := takeDecoded(t, w)
		if class != stream.ClassReplay {
			t.Fatalf("replay frame at tuple %d has class %v", want, class)
		}
		for _, tu := range tuples {
			if got := seqOf(t, tu); got != want {
				t.Fatalf("window holds tuple %d where %d belongs", got, want)
			}
			if pad, ok := tu.Values[1].(string); ok && pad != tupleOf(want).Values[1] {
				t.Fatalf("tuple %d: payload changed in the window", want)
			}
			want++
		}
		w.wrote()
	}
	if want != total {
		t.Fatalf("replay ended at tuple %d, want %d", want, total)
	}
}

// TestRelayReconnectReplaysWindow kills the connection from the
// receiving side mid-stream: the relay must come back on a new
// connection with everything it retains, in order, as replay class, and
// tuples admitted after that must ride live-class frames again.
func TestRelayReconnectReplaysWindow(t *testing.T) {
	const window, before = 256, 40
	sink := newFlowSink(t)
	r := newRelay(relayTestNode(window, sink.addr(), io.Discard), "src", "dst")
	r.start()
	defer r.close()

	admitted := 0
	push := func() {
		admit(t, r, seqTuple(admitted, "p"), stream.ClassIngest)
		admitted++
	}
	for admitted < before {
		push()
	}
	for got := 0; got < before; {
		f := sink.next(t)
		if f.conn != 0 {
			t.Fatalf("frame on connection %d before the kill", f.conn)
		}
		got += len(f.tuples)
	}
	sink.kill(0)

	// A write into the dead connection fails only once the peer's reset
	// has come back, so keep a trickle going until the relay reconnects.
	var first rxFrame
	for first.tuples == nil {
		if admitted == window {
			t.Fatal("relay did not reconnect")
		}
		push()
		select {
		case first = <-sink.frames:
		case <-time.After(20 * time.Millisecond):
		}
	}
	want, live := 0, false
	for f := first; ; f = sink.next(t) {
		if f.conn != 1 {
			t.Fatalf("frame on connection %d after the kill", f.conn)
		}
		if f.class != stream.ClassReplay {
			live = true
		} else if live {
			t.Fatalf("replay frame at tuple %d after live frames resumed", want)
		}
		for _, tu := range f.tuples {
			if got := seqOf(t, tu); got != want {
				t.Fatalf("connection 1 carried tuple %d, want %d", got, want)
			}
			if live && want < before {
				t.Fatalf("tuple %d, retained at the reconnect, rode a live frame", want)
			}
			want++
		}
		if want == admitted {
			break
		}
	}
	// Everything is replayed; what comes now is new.
	for i := 0; i < 10; i++ {
		push()
	}
	for want < admitted {
		f := sink.next(t)
		if f.class != stream.ClassIngest {
			t.Fatalf("tuple %d, admitted after the replay, rode a class-%v frame", want, f.class)
		}
		for _, tu := range f.tuples {
			if got := seqOf(t, tu); got != want {
				t.Fatalf("tuple %d arrived, want %d", got, want)
			}
			want++
		}
	}
}

// closeSignalListener reports when the node closes a connection it
// accepted: the one event both a refused and an accepted-then-dropped
// flow end in.
type closeSignalListener struct {
	net.Listener
	closed chan struct{}
}

func (l closeSignalListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &closeSignalConn{Conn: c, closed: l.closed}, nil
}

type closeSignalConn struct {
	net.Conn
	closed chan struct{}
}

func (c *closeSignalConn) Close() error {
	select {
	case c.closed <- struct{}{}:
	default: // the test has its signal; later retries close unobserved
	}
	return c.Conn.Close()
}

// TestFlowRefusedUntilCellReady is benchmark finding 4 made
// deterministic: the destination's owner is a live member of the relay's
// view but hosts no cell yet — the window between a node's join and its
// cell coming up. The relay has one frame to send and nothing after it,
// so nothing would ever tell it that a peer accepted the flow, read the
// frame and hung up: the hello must be refused, the frame stay unsent,
// and the retry after the cell is up deliver it.
func TestFlowRefusedUntilCellReady(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	connClosed := make(chan struct{}, 1)
	peer := &Node{
		cfg:    NodeConfig{Name: "peer"},
		logger: log.New(io.Discard, "", 0),
		reg:    metrics.NewRegistry(),
		ln:     closeSignalListener{ln, connClosed},
		conns:  map[net.Conn]bool{},
	}
	peer.servWG.Add(1)
	go peer.serve()

	const total = 3
	r := newRelay(relayTestNode(64, ln.Addr().String(), io.Discard), "src", "dst")
	run := make([]stream.Tuple, total)
	for i := range run {
		run[i] = seqTuple(i, "p")
	}
	if err := r.ExecuteBatch(run, stream.ClassIngest, nil); err != nil {
		t.Fatal(err)
	}
	r.start()
	var rt *stream.Runtime
	defer func() { // sender, then ingress, then the runtime they feed
		r.close()
		peer.shutdownTransport()
		if rt != nil {
			_ = rt.Wait()
		}
	}()
	select {
	case <-connClosed:
	case <-time.After(10 * time.Second):
		t.Fatal("the cell-less peer never hung up on the relay's first connection")
	}

	got := make(chan stream.Tuple, total)
	topo := stream.NewTopology("t")
	if err := topo.AddSource("src"); err != nil {
		t.Fatal(err)
	}
	record := stream.BoltFunc(func(tu stream.Tuple, _ stream.Emit) error { got <- tu; return nil })
	if err := topo.AddBolt("dst", record, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	if rt, err = stream.NewRuntime(topo, stream.Config{}); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	c := &cell{set: map[string]bool{"dst": true}, rt: rt}
	c.ready.Store(true)
	peer.mu.Lock()
	peer.cells = append(peer.cells, c)
	peer.mu.Unlock()

	for want := 0; want < total; want++ {
		select {
		case tu := <-got: // as injected: on the producer's stream, not "s"
			if tu.Ts != int64(want) {
				t.Fatalf("tuple %d arrived, want %d", tu.Ts, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("tuple %d never arrived: it was written to a peer with no cell and counted as sent", want)
		}
	}
}

// blockedAdmit fills a window of four with unsent tuples and starts a
// fifth admission, which must block; it returns the channel the fifth
// reports on.
func blockedAdmit(t *testing.T, r *relay) <-chan error {
	t.Helper()
	for i := 0; i < 4; i++ {
		admit(t, r, seqTuple(i, "p"), stream.ClassIngest)
	}
	fifth := make(chan error, 1)
	go func() { fifth <- r.ExecuteBatch([]stream.Tuple{seqTuple(4, "p")}, stream.ClassIngest, nil) }()
	select {
	case err := <-fifth:
		t.Fatalf("admission into a window full of unsent tuples returned (%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	return fifth
}

// TestRelayBlocksWhenWindowFullOfUnsent: a full window with nothing on
// the wire is backpressure on the executor, released by sending.
func TestRelayBlocksWhenWindowFullOfUnsent(t *testing.T) {
	sink := newFlowSink(t)
	r := newRelay(relayTestNode(4, sink.addr(), io.Discard), "src", "dst")
	fifth := blockedAdmit(t, r)
	r.start()
	defer r.close()
	for want := 0; want < 5; {
		for _, tu := range sink.next(t).tuples {
			if got := seqOf(t, tu); got != want {
				t.Fatalf("tuple %d arrived, want %d", got, want)
			}
			want++
		}
	}
	select {
	case err := <-fifth:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("admission still blocked after the window was sent")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.win.len() != 4 || r.win.recs.head != 1 {
		t.Fatalf("window holds %d tuples from %d, want 4 from 1", r.win.len(), r.win.recs.head)
	}
}

// TestRelayCloseWhileBlocked: close releases a blocked executor and
// stops a sender that has nobody to connect to.
func TestRelayCloseWhileBlocked(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := ln.Addr().String()
	_ = ln.Close()
	r := newRelay(relayTestNode(4, refused, io.Discard), "src", "dst")
	r.start()
	fifth := blockedAdmit(t, r)
	closed := make(chan struct{})
	go func() {
		r.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("close did not return")
	}
	select {
	case err := <-fifth:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close left the executor blocked")
	}
}

// TestRelayCloseBeforeStart: a relay whose sender was never started — a
// cell whose recovery failed before its relays ran — closes without
// waiting for one.
func TestRelayCloseBeforeStart(t *testing.T) {
	r := newRelay(relayTestNode(4, "", io.Discard), "src", "dst")
	closed := make(chan struct{})
	go func() {
		r.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("close waits for a sender that was never started")
	}
}

// TestRelayEncodeFailureSurfacesAtAdmission: a value the codec's gob
// fallback cannot encode is refused when it is admitted — an error for
// the runtime's ExecuteErrors, a log line, nothing retained — and does
// not stand in the way of the tuples after it.
func TestRelayEncodeFailureSurfacesAtAdmission(t *testing.T) {
	var logged bytes.Buffer
	r := newRelay(relayTestNode(4, "", &logged), "src", "dst")
	bad := stream.Tuple{Stream: "s", Values: []any{int64(1), func() {}}}
	if err := r.ExecuteBatch([]stream.Tuple{bad}, stream.ClassIngest, nil); err == nil {
		t.Fatal("unencodable tuple admitted")
	}
	if r.win.len() != 0 {
		t.Fatalf("window retains %d tuples after a refused admission", r.win.len())
	}
	// In the middle of a run it takes nothing else down with it.
	run := []stream.Tuple{seqTuple(7, "p"), bad, seqTuple(8, "p")}
	if err := r.ExecuteBatch(run, stream.ClassIngest, nil); err == nil {
		t.Fatal("run with an unencodable tuple reported no error")
	}
	if tuples, _ := takeDecoded(t, &r.win); len(tuples) != 2 || seqOf(t, tuples[0]) != 7 || seqOf(t, tuples[1]) != 8 {
		t.Fatalf("run around the refused tuple left %d tuples in the window, want 7 and 8", len(tuples))
	}
	if !strings.Contains(logged.String(), "dropped tuple") {
		t.Fatalf("no log line for the dropped tuple: %q", logged.String())
	}
	admit(t, r, seqTuple(0, "p"), stream.ClassIngest)
	if tuples, _ := takeDecoded(t, &r.win); len(tuples) != 1 || seqOf(t, tuples[0]) != 0 {
		t.Fatalf("frame after the refused tuple carries %d tuples", len(tuples))
	}
}

// TestWindowReplayDoesNotSpillIntoLive drives the window alone: after a
// reconnect the retained stretch goes out as replay class in a frame
// that stops at its end even with room left, and what was admitted later
// keeps its own class.
func TestWindowReplayDoesNotSpillIntoLive(t *testing.T) {
	var w window
	var rec []byte
	push := func(i int, class stream.TrafficClass) {
		tu := seqTuple(i, "p")
		var err error
		if rec, err = stream.AppendTupleRecord(rec[:0], &tu); err != nil {
			t.Fatal(err)
		}
		w.admit(rec, class, int64(1000+i))
	}
	type run struct {
		n      int
		class  stream.TrafficClass
		oldest int64
	}
	takeAll := func() (runs []run) {
		for w.unsent() {
			_, n, class, oldest := w.take(nil)
			runs = append(runs, run{n, class, oldest})
			w.wrote()
		}
		return runs
	}
	equal := func(got, want []run) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	for i := 0; i < 10; i++ {
		class := stream.ClassIngest
		if i >= 6 {
			class = stream.ClassReplay
		}
		push(i, class)
	}
	// First send: one class per frame, so the run breaks where it changes.
	if got, want := takeAll(), []run{{6, stream.ClassIngest, 1000}, {4, stream.ClassReplay, 1006}}; !equal(got, want) {
		t.Fatalf("first send = %v, want %v", got, want)
	}
	w.unsendAll()
	for i := 10; i < 15; i++ {
		push(i, stream.ClassIngest)
	}
	want := []run{{10, stream.ClassReplay, 1000}, {5, stream.ClassIngest, 1010}}
	if got := takeAll(); !equal(got, want) {
		t.Fatalf("after reconnect = %v, want %v", got, want)
	}
	// A failed send gives its tuples back, still as replay.
	w.unsendAll()
	_, n, _, _ := w.take(nil)
	w.unsend(n)
	if got := takeAll(); !equal(got, []run{{15, stream.ClassReplay, 1000}}) {
		t.Fatalf("after unsend = %v", got)
	}
}

// TestWindowFramesFillAChunk: a frame takes everything waiting up to a
// window chunk of record bytes — across a chunk boundary too — and the
// next frame starts where it stopped.
func TestWindowFramesFillAChunk(t *testing.T) {
	var w window
	var rec []byte
	const total = 300
	for i := 0; i < total; i++ {
		tu := seqTuple(i, strings.Repeat("z", 700+i%300))
		var err error
		if rec, err = stream.AppendTupleRecord(rec[:0], &tu); err != nil {
			t.Fatal(err)
		}
		w.admit(rec, stream.ClassIngest, int64(i))
	}
	if w.chunks.n < 3 {
		t.Fatalf("%d tuples of ~1 KB fill %d chunks, want 3 or more", total, w.chunks.n)
	}
	want := 0
	for w.unsent() {
		tuples, _ := takeDecoded(t, &w)
		head := recordBytes(t, tuples[:len(tuples)-1])
		if head >= windowChunkBytes {
			t.Fatalf("frame from tuple %d: %d record bytes before its last", want, head)
		}
		if w.unsent() && recordBytes(t, tuples) < windowChunkBytes {
			t.Fatalf("frame from tuple %d stopped at %d bytes with more waiting", want, recordBytes(t, tuples))
		}
		for _, tu := range tuples {
			if got := seqOf(t, tu); got != want {
				t.Fatalf("tuple %d taken, want %d", got, want)
			}
			want++
		}
		w.wrote()
	}
	if want != total {
		t.Fatalf("took %d tuples, want %d", want, total)
	}
}

// benchRelayAdmit measures the relay's per-tuple path with a full
// window and no socket, a 32-tuple run at a time as the executor hands
// them over: encode and admit the run, trimming as many, then take a
// frame (headers built, record slices gathered), which also declares
// the previous frame written. One op is one tuple.
func benchRelayAdmit(b *testing.B, replayBuffer int) {
	const batch = 32
	r := newRelay(relayTestNode(replayBuffer, "", io.Discard), "src", "dst")
	tuples := make([]stream.Tuple, 2*batch)
	for i := range tuples {
		tuples[i] = stream.Tuple{Stream: "words", Ts: int64(i), Values: []any{"benchmark", int64(i)}}
	}
	i := 0
	step := func() {
		if err := r.ExecuteBatch(tuples[i%len(tuples):][:batch], stream.ClassIngest, nil); err != nil {
			b.Fatal(err)
		}
		i += batch
		if _, _, ok := r.take(); !ok {
			b.Fatal("relay closed")
		}
	}
	// Twice around: the window is full, its ring has stopped growing and
	// every chunk it will ever need exists.
	for i < 2*replayBuffer {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		step()
	}
}

// BenchmarkRelayAdmitFullWindow is the cost of one tuple through a full
// window at two window sizes; the two must read alike (see
// TestRelayAdmitCostIndependentOfWindow) and allocate nothing.
func BenchmarkRelayAdmitFullWindow(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("window=%dKi", size>>10), func(b *testing.B) { benchRelayAdmit(b, size) })
	}
}

func skipCostGuard(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector instrumentation allocates and slows unevenly")
	}
	if testing.Short() {
		t.Skip("cost guard runs the benchmark harness")
	}
}

// TestRelayAdmitZeroAlloc is the allocation guard on the batched emit
// path across a process edge: admission-time encode, window upkeep and
// frame assembly (flow header, batch header, record slices) allocate
// nothing once the window is full.
func TestRelayAdmitZeroAlloc(t *testing.T) {
	skipCostGuard(t)
	res := testing.Benchmark(func(b *testing.B) { benchRelayAdmit(b, 1<<10) })
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("relay admit + frame assembly = %d allocs/op, want 0", a)
	}
}

// TestRelayAdmitCostIndependentOfWindow keeps the per-tuple path free of
// anything that grows with ReplayBuffer. The slice-shift trim this
// window replaced read about 64x between these two sizes; the margin of
// 4x is cache misses and noise.
func TestRelayAdmitCostIndependentOfWindow(t *testing.T) {
	skipCostGuard(t)
	nsPerOp := func(size int) float64 {
		res := testing.Benchmark(func(b *testing.B) { benchRelayAdmit(b, size) })
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}
	small, large := nsPerOp(1<<10), nsPerOp(1<<16)
	t.Logf("ns/tuple: %.0f at 1Ki, %.0f at 64Ki", small, large)
	if large > 4*small {
		t.Fatalf("admission costs %.0f ns at ReplayBuffer 64Ki, %.0f at 1Ki: it grows with the window", large, small)
	}
}

// TestRelayAdmitClockPerRun pins the relay's clock budget: a run is
// admitted under one admission stamp and a frame taken under one send
// stamp, however many tuples they carry.
func TestRelayAdmitClockPerRun(t *testing.T) {
	var reads int
	real := nowNano
	nowNano = func() int64 { reads++; return real() }
	defer func() { nowNano = real }()

	const runs, perRun = 10, 64
	r := newRelay(relayTestNode(1<<10, "", io.Discard), "src", "dst")
	run := make([]stream.Tuple, perRun)
	for i := range run {
		run[i] = seqTuple(i, "p")
	}
	for i := 0; i < runs; i++ {
		if err := r.ExecuteBatch(run, stream.ClassIngest, nil); err != nil {
			t.Fatal(err)
		}
	}
	if reads != runs {
		t.Fatalf("%d clock reads admitting %d runs of %d tuples, want one per run", reads, runs, perRun)
	}
	// Everything waiting fits in a window chunk, so it goes as one frame.
	if _, n, ok := r.take(); !ok || n != runs*perRun {
		t.Fatalf("frame of %d tuples (ok=%v), want all %d waiting", n, ok, runs*perRun)
	}
	if reads != runs+1 {
		t.Fatalf("%d clock reads; want one per run and frame", reads)
	}
	// Every tuple of a run carries the run's stamp.
	if first, last := r.win.recs.at(0).at, r.win.recs.at(perRun-1).at; first != last {
		t.Fatalf("one run admitted under two stamps (%d, %d)", first, last)
	}
}

// TestIdleFlowOutlivesItsIOTimeout: an edge that carries nothing for
// longer than the flow I/O timeout is still up when its next tuple comes —
// the timeout bounds a stall inside a frame, not the wait between frames —
// so that tuple is delivered at once, on the same connection, with nothing
// replayed. A receiver that timed the idle wait out would close the
// connection, and the sender's next write into it would vanish until some
// later write found the break and replayed the window.
func TestIdleFlowOutlivesItsIOTimeout(t *testing.T) {
	defer func(d time.Duration) { flowIOTimeout = d }(flowIOTimeout)
	flowIOTimeout = 150 * time.Millisecond
	const gap = 600 * time.Millisecond // between the source's two tuples
	spec := testSpec("n1", "n2", "n2", 2, 2, gap.Microseconds(), 100)
	n1 := startTestNode(t, "n1", "", spec)
	defer n1.Stop()
	n2 := startTestNode(t, "n2", n1.Addr(), spec)
	defer n2.Stop()

	edge := "sr3_cluster_edge_source__count_"
	frames, tuples := n2.reg.Counter(edge+"frames_total"), n2.reg.Counter(edge+"tuples_total")
	waitCondition(t, 5*time.Second, "the first tuple across the edge", func() bool { return tuples.Value() == 1 })
	// The source now idles the edge for gap, four timeouts.
	waitCondition(t, gap+time.Second, "the tuple after the idle stretch", func() bool { return tuples.Value() == 2 })
	if got := frames.Value(); got != 2 {
		t.Fatalf("%d frames crossed the edge for 2 tuples: the window was replayed", got)
	}
	waitSink(t, n2, 2, 5*time.Second)
}
