package nettransport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"testing"
	"time"

	"sr3/internal/id"
	"sr3/internal/simnet"
)

// The timing of the idle-timeout tests: a reader pauses up to twice per
// chunk (pausingConn), well inside the timeout, so a body of 16 chunks
// or more takes several timeouts end to end.
const (
	idleTimeout = 400 * time.Millisecond
	idlePause   = 60 * time.Millisecond
)

// pausingConn is a reader that takes its time between chunks: it sleeps
// before the first Read past each DefaultChunkSize bytes it has read.
type pausingConn struct {
	net.Conn
	pause      time.Duration
	read, next int
}

func (c *pausingConn) Read(p []byte) (int, error) {
	if c.read >= c.next {
		time.Sleep(c.pause)
		c.next += DefaultChunkSize
	}
	n, err := c.Conn.Read(p)
	c.read += n
	return n, err
}

// TestIdleTimeoutIsNotATransferBudget: a raw body whose reader pauses
// between chunks, each pause inside the I/O timeout, crosses byte-exact
// through ServeConn and through BatchConn although the whole transfer
// takes several timeouts — the deadline refreshes per chunk. The larger
// size is one a credit window of 32 frames granted every 16 would stall
// on: its sender waits for 16 of the reader's pauses at once.
func TestIdleTimeoutIsNotATransferBudget(t *testing.T) {
	for _, chunks := range []int{16, 40} {
		size := chunks*DefaultChunkSize - 5 // a ragged last chunk
		body := make([]byte, size)
		rand.New(rand.NewSource(int64(chunks))).Read(body)
		minElapsed := time.Duration(chunks) * idlePause

		t.Run(fmt.Sprintf("exchange/chunks=%d", chunks), func(t *testing.T) {
			t.Parallel()
			// The server reads the request through a pausing conn under
			// the short timeout; the caller's own is generous, since it
			// waits for a reply only once its last chunk is written.
			n := New()
			n.SetIOTimeout(idleTimeout)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			got := make(chan []byte, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				var magic [1]byte
				if _, err := io.ReadFull(conn, magic[:]); err != nil {
					return
				}
				n.ServeConn(&pausingConn{Conn: conn, pause: idlePause}, func(_ id.ID, msg simnet.Message) (simnet.Message, error) {
					got <- append([]byte(nil), msg.Raw...)
					return simnet.Message{Kind: "ok"}, nil
				})
			}()
			start := time.Now()
			reply, err := n.Exchange(ln.Addr().String(), id.HashKey("pusher"), simnet.Message{Kind: "push", Raw: body}, 10*time.Second)
			elapsed := time.Since(start)
			if err != nil || reply.Kind != "ok" {
				t.Fatalf("a body read with pauses under the timeout failed after %v: %q, %v", elapsed, reply.Kind, err)
			}
			if !bytes.Equal(<-got, body) {
				t.Fatal("the server read a different body")
			}
			if elapsed < minElapsed {
				t.Fatalf("transfer took %v, under the %v its pauses add up to", elapsed, minElapsed)
			}
		})

		t.Run(fmt.Sprintf("batchconn/chunks=%d", chunks), func(t *testing.T) {
			t.Parallel()
			cw, sw := tcpPair(t)
			bs := NewBatchConn(&pausingConn{Conn: sw, pause: idlePause}, idleTimeout)
			werr := make(chan error, 1)
			go func() { werr <- NewBatchConn(cw, idleTimeout).WriteBatch(body) }()
			start := time.Now()
			got, free, err := bs.ReadBatch()
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("a body read with pauses under the timeout failed after %v: %v", elapsed, err)
			}
			defer free()
			if err := <-werr; err != nil {
				t.Fatalf("writer: %v", err)
			}
			if !bytes.Equal(got, body) {
				t.Fatal("the reader got a different body")
			}
			if elapsed < minElapsed {
				t.Fatalf("transfer took %v, under the %v its pauses add up to", elapsed, minElapsed)
			}
		})
	}
}

// TestBodyStoppedHalfwayTimesOut: the per-chunk refresh does not stretch
// a stall. A body whose sender stops halfway, leaving the connection
// open, fails the read once the timeout passes: Exchange with ErrTimeout,
// ReadBatch with the deadline error, even for a reader that pauses.
func TestBodyStoppedHalfwayTimesOut(t *testing.T) {
	const chunks = 12
	half := bytes.Repeat([]byte{7}, chunks/2*DefaultChunkSize)

	t.Run("exchange", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		hold := make(chan struct{})
		defer close(hold)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Take the request, announce a whole reply body, send half.
			_, _ = io.ReadFull(conn, make([]byte, 1))
			var req wireRequest
			if err := gob.NewDecoder(conn).Decode(&req); err != nil {
				return
			}
			if err := writeHead(conn, nil, &wireReply{Kind: "ok", RawLen: chunks * DefaultChunkSize}); err != nil {
				return
			}
			_, _ = conn.Write(half)
			<-hold
		}()
		start := time.Now()
		_, err = New().Exchange(ln.Addr().String(), id.HashKey("caller"), simnet.Message{Kind: "fetch"}, idleTimeout)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("a reply body that stopped halfway: %v, want ErrTimeout", err)
		}
		if elapsed := time.Since(start); elapsed > 10*idleTimeout {
			t.Fatalf("the stall was noticed after %v", elapsed)
		}
	})

	t.Run("batchconn", func(t *testing.T) {
		cw, sw := tcpPair(t)
		bs := NewBatchConn(&pausingConn{Conn: sw, pause: idlePause}, idleTimeout)
		go func() {
			// A header announcing the whole body, then half of it.
			var hdr [binary.MaxVarintLen64]byte
			_, _ = cw.Write(hdr[:binary.PutUvarint(hdr[:], chunks*DefaultChunkSize)])
			_, _ = cw.Write(half)
		}()
		if _, _, err := bs.ReadBatch(); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("a body that stopped halfway: %v, want a deadline error", err)
		}
	})
}
