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
	a, b := id.HashKey("caller"), id.HashKey("slow")
	if err := n.Register(a, okHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(b, func(id.ID, simnet.Message) (simnet.Message, error) {
		time.Sleep(200 * time.Millisecond)
		return simnet.Message{Kind: "done", Raw: []byte("late but whole")}, nil
	}); err != nil {
		t.Fatal(err)
	}
	reply, err := n.CallTimeout(a, b, simnet.Message{Kind: "sr3.adopt"}, 5*time.Second)
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
