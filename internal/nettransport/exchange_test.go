package nettransport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"sr3/internal/id"
	"sr3/internal/simnet"
)

// TestReplySurvivesSlowHandler: the I/O timeout bounds reads and writes,
// not the handler. A handler that outlives it — an adoption recovers and
// replays before it acknowledges — must still get its reply out to a
// caller that was willing to wait.
func TestReplySurvivesSlowHandler(t *testing.T) {
	n := New()
	defer n.Close()
	n.SetIOTimeout(50 * time.Millisecond)
	b := id.HashKey("slow")
	if err := n.Register(b, func(id.ID, simnet.Message) (simnet.Message, error) {
		time.Sleep(200 * time.Millisecond)
		return simnet.Message{Kind: "done", Raw: []byte("late but whole")}, nil
	}); err != nil {
		t.Fatal(err)
	}
	addr, _ := n.Addr(b)
	reply, err := n.Exchange(addr, id.HashKey("caller"), simnet.Message{Kind: "sr3.adopt"}, 5*time.Second)
	if err != nil {
		t.Fatalf("reply of a handler slower than the server's I/O timeout was lost: %v", err)
	}
	if reply.Kind != "done" || string(reply.Raw) != "late but whole" {
		t.Fatalf("reply = %q %q", reply.Kind, reply.Raw)
	}
}

// TestRegisteredErrorKeepsIdentity: a handler error wrapping a registered
// sentinel is that sentinel on the caller's side; an unregistered one
// whose text merely mentions it is not. Exchange and ServeConn are driven
// the way the daemon drives them: its own listener, its own mux.
var errFenced = errors.New("nettransport_test: fenced")

func init() {
	RegisterError(200, errFenced)
	RegisterError(200, errFenced) // idempotent, like gob.Register
}

func TestRegisteredErrorKeepsIdentity(t *testing.T) {
	n := New()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var magic [1]byte
				if _, err := io.ReadFull(conn, magic[:]); err != nil || magic[0] != Magic {
					return
				}
				n.ServeConn(conn, func(_ id.ID, msg simnet.Message) (simnet.Message, error) {
					switch msg.Kind {
					case "typed":
						return simnet.Message{}, fmt.Errorf("epoch 7: %w", errFenced)
					case "text":
						return simnet.Message{}, errors.New(errFenced.Error() + " (says the text)")
					}
					return simnet.Message{Kind: "ok", Payload: msg.Payload}, nil
				})
			}()
		}
	}()
	from := id.HashKey("client")
	addr := ln.Addr().String()
	if reply, err := n.Exchange(addr, from, simnet.Message{Kind: "echo", Payload: "x"}, time.Second); err != nil || reply.Payload != "x" {
		t.Fatalf("echo: %v, %v", reply.Payload, err)
	}
	_, err = n.Exchange(addr, from, simnet.Message{Kind: "typed"}, time.Second)
	if !errors.Is(err, errFenced) {
		t.Fatalf("registered error lost its identity on the wire: %v", err)
	}
	_, err = n.Exchange(addr, from, simnet.Message{Kind: "text"}, time.Second)
	if err == nil || errors.Is(err, errFenced) {
		t.Fatalf("error text alone read as the sentinel: %v", err)
	}
}

// requestBytes is what a client puts on the wire after Magic.
func requestBytes(t testing.TB, req wireRequest, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(&req); err != nil {
		t.Fatal(err)
	}
	return append(b.Bytes(), raw...)
}

// serveBytes plays data to ServeConn over a pipe as one client would —
// write, then hang up — and returns what the server wrote back and how
// many requests reached the handler.
func serveBytes(n *Network, data []byte) (reply []byte, handled int) {
	client, server := net.Pipe()
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(client)
		got <- b
	}()
	go func() {
		_, _ = client.Write(data)
		// Hang up a moment later: a request that is all there has been
		// read by now, one that is not gets io.EOF instead of a deadline.
		time.Sleep(time.Millisecond)
		_ = client.Close()
	}()
	n.ServeConn(server, func(_ id.ID, msg simnet.Message) (simnet.Message, error) {
		handled++
		return simnet.Message{Kind: "ok", Raw: msg.Raw}, nil
	})
	_ = server.Close()
	return <-got, handled
}

// TestServeConnDropsHostileRawLen: a header announcing a body above the
// cap is answered by dropping the connection — no reply, no handler, no
// buffer.
func TestServeConnDropsHostileRawLen(t *testing.T) {
	n := New()
	n.SetIOTimeout(time.Second)
	for _, rawLen := range []int{maxRawLen + 1, 1 << 40, -1} {
		before := n.DataPlane().Pool
		reply, handled := serveBytes(n, requestBytes(t, wireRequest{Kind: "sr3.shard.storeBatch", RawLen: rawLen}, []byte("xx")))
		if len(reply) != 0 || handled != 0 {
			t.Fatalf("RawLen %d: %d reply bytes, %d requests handled; want the connection dropped", rawLen, len(reply), handled)
		}
		if after := n.DataPlane().Pool; after != before {
			t.Fatalf("RawLen %d: a body buffer was taken (%+v -> %+v)", rawLen, before, after)
		}
	}
	reply, handled := serveBytes(n, requestBytes(t, wireRequest{Kind: "sr3.shard.storeBatch", RawLen: 2}, []byte("xx")))
	if len(reply) == 0 || handled != 1 {
		t.Fatalf("well-formed request: %d reply bytes, %d handled", len(reply), handled)
	}
}

// FuzzServeConn feeds arbitrary bytes to the server function: it must not
// panic and must not allocate a body the cap forbids, whatever length the
// header claims.
func FuzzServeConn(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not gob at all"))
	f.Add([]byte("\xfc0000")) // a gob message claiming 0x30303030 bytes
	f.Add(requestBytes(f, wireRequest{From: id.HashKey("a"), Kind: "ping", Body: "hello"}, nil))
	f.Add(requestBytes(f, wireRequest{Kind: "sr3.shard.storeBatch", RawLen: 3}, []byte("abc")))
	f.Add(requestBytes(f, wireRequest{Kind: "sr3.shard.storeBatch", RawLen: 1 << 19}, []byte("short")))
	f.Add(requestBytes(f, wireRequest{Kind: "sr3.shard.storeBatch", RawLen: 1 << 40}, nil))
	whole := requestBytes(f, wireRequest{Kind: "cluster.kv.put", Body: "k", RawLen: 5, TraceID: 7, SpanID: 9}, []byte("value"))
	f.Add(whole[:len(whole)/2])

	// The production cap is 1 GiB; the property is the same at a size a
	// fuzz worker can afford to be wrong about.
	defer func(c int) { maxRawLen = c }(maxRawLen)
	maxRawLen = 1 << 20
	// encoding/gob takes a header's claimed length below 10 MiB on trust
	// (internal/saferio); the rest is bufio, the pipe, the fuzz worker.
	const slack = 16 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		n := New()
		n.SetIOTimeout(time.Second)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serveBytes(n, data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(maxRawLen+len(data)+slack) {
			t.Fatalf("serving %d bytes allocated %d, cap is %d", len(data), grew, maxRawLen)
		}
	})
}

// serveOne accepts connections on a fresh loopback listener and serves
// each as one exchange with h; it returns the address.
func serveOne(t *testing.T, n *Network, h simnet.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var magic [1]byte
				if _, err := io.ReadFull(conn, magic[:]); err == nil && magic[0] == Magic {
					n.ServeConn(conn, h)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestSegmentedBodyCrossesAsItsConcatenation: RawSegs is written vectored
// on the same chunk grid as the joined body would be, so the receiver
// reads one Raw — at sizes on both sides of a chunk, across many chunks,
// and with segment edges that fall inside chunks.
func TestSegmentedBodyCrossesAsItsConcatenation(t *testing.T) {
	n := New()
	var got []byte
	addr := serveOne(t, n, func(_ id.ID, msg simnet.Message) (simnet.Message, error) {
		if len(msg.RawSegs) != 0 {
			return simnet.Message{}, errors.New("a receiver sees Raw only")
		}
		got = append([]byte(nil), msg.Raw...)
		return simnet.Message{Kind: "ok"}, nil
	})
	for _, sizes := range [][]int{
		{4, 0, 1},
		{4, DefaultChunkSize - 4, 4, 10},
		{4, DefaultChunkSize + 1, 4, DefaultChunkSize - 1},
		{4, 33 * DefaultChunkSize, 4, 48*DefaultChunkSize + 17},
	} {
		var segs [][]byte
		var want []byte
		for i, size := range sizes {
			seg := bytes.Repeat([]byte{byte('a' + i)}, size)
			segs = append(segs, seg)
			want = append(want, seg...)
		}
		got = nil
		if _, err := n.Exchange(addr, id.HashKey("pusher"), simnet.Message{Kind: "segs", RawSegs: segs}, 5*time.Second); err != nil {
			t.Fatalf("segments %v: %v", sizes, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("segments %v: receiver read %d bytes, not the %d-byte concatenation", sizes, len(got), len(want))
		}
	}
	if dp := n.DataPlane(); dp.RawMessages != 8 {
		t.Fatalf("raw messages = %d, want 4 sent + 4 received", dp.RawMessages)
	}
}

// TestTakenBodyIsNotRecycled: a handler that takes the request's body keeps
// the very buffer the socket was read into — no copy — and later requests
// are read into other memory, while a body nobody took goes back to the
// pool and backs the next request of its size.
func TestTakenBodyIsNotRecycled(t *testing.T) {
	n := New()
	var kept [][]byte
	var seen []*byte
	addr := serveOne(t, n, func(_ id.ID, msg simnet.Message) (simnet.Message, error) {
		seen = append(seen, &msg.Raw[0])
		if msg.Kind == "keep" {
			body, _ := msg.TakeRaw()
			if &body[0] != &msg.Raw[0] {
				return simnet.Message{}, errors.New("took a copy")
			}
			kept = append(kept, body)
		}
		return simnet.Message{Kind: "ok"}, nil
	})
	send := func(kind string, fill byte) {
		t.Helper()
		body := bytes.Repeat([]byte{fill}, 3*DefaultChunkSize+5)
		if _, err := n.Exchange(addr, id.HashKey("pusher"), simnet.Message{Kind: kind, Raw: body}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	send("keep", 1)
	send("keep", 2)
	// sync.Pool may drop a buffer at any GC: give reuse a few chances.
	reused := false
	for i := 0; i < 50 && !reused; i++ {
		send("drop", 3)
		send("drop", 4)
		reused = seen[len(seen)-1] == seen[len(seen)-2]
	}
	if !reused {
		t.Fatal("a body nobody took was never reused for the next request")
	}
	for i, body := range kept {
		if want := bytes.Repeat([]byte{byte(i + 1)}, len(body)); !bytes.Equal(body, want) {
			t.Fatalf("kept body %d was overwritten by a later request", i+1)
		}
		for _, p := range seen[2:] {
			if p == &body[0] {
				t.Fatalf("kept body %d's buffer was handed to a later request", i+1)
			}
		}
	}
}
