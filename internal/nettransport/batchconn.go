package nettransport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"sr3/internal/offheap"
)

// MaxBatchBytes caps a single batch body on the wire. A corrupt or
// hostile length header must not translate into an arbitrary
// allocation on the receiver.
const MaxBatchBytes = 64 << 20

// BatchConn carries length-delimited binary bodies — in SR3, encoded
// tuple batches (stream.EncodeTupleBatch frames) — over one connection
// using the same chunked data plane as the transport's raw message path.
// Each body is a uvarint length header followed by the body bytes on the
// raw-body chunk grid, read into one buffer of the announced length.
//
// A BatchConn is directional: one endpoint writes, the peer reads.
// WriteBatch accepts multiple segments and hands each chunk to the kernel
// as a single writev, the length header riding in the first — callers can
// send a pooled header and a pooled payload without gluing them together
// first, and a body that fits one chunk costs one syscall.
type BatchConn struct {
	conn net.Conn
	r    *bufio.Reader
	io   frameIO

	wmu sync.Mutex
	rmu sync.Mutex

	hdr [binary.MaxVarintLen64]byte
	vec vecScratch // guarded by wmu

	// The receive side reads into the buffer its last freed body left
	// behind: one body is out at a time on a stream that frees each
	// before reading the next, so one spare is the whole pool, and
	// handing it back allocates nothing. A body of bigBody bytes or more
	// is mapped outside the heap as on the message path.
	bmu     sync.Mutex
	spare   []byte // guarded by bmu: the largest freed small body's buffer
	out     []byte // guarded by bmu: the body freeOut releases
	freeOut func()
}

// NewBatchConn wraps conn. timeout, when positive, acts as a per-frame
// idle timeout (the deadline refreshes on every chunk), not a
// whole-transfer budget; a reader waiting between bodies waits unbounded.
func NewBatchConn(conn net.Conn, timeout time.Duration) *BatchConn {
	r := bufio.NewReader(conn)
	c := &BatchConn{
		conn: conn,
		r:    r,
		io:   frameIO{conn: conn, r: r, timeout: timeout},
	}
	c.freeOut = func() {
		c.bmu.Lock()
		b := c.out
		c.out = nil
		c.bmu.Unlock()
		c.release(b)
	}
	return c
}

// WriteBatch sends the concatenation of segs as one length-delimited
// body. The segments are consumed by reference — the caller may recycle
// them once WriteBatch returns.
func (c *BatchConn) WriteBatch(segs ...[]byte) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total > MaxBatchBytes {
		return fmt.Errorf("batchconn: body %d bytes exceeds cap %d", total, MaxBatchBytes)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n := binary.PutUvarint(c.hdr[:], uint64(total))
	if _, err := c.io.writeRawVec(&c.vec, c.hdr[:n], segs, total); err != nil {
		return fmt.Errorf("batchconn: %w", err)
	}
	return nil
}

// ReadBatch receives the next body into a recycled buffer. The returned
// free func recycles the buffer; the caller must not touch the slice
// after calling it, nor call it twice. free is non-nil exactly when err
// is nil. A caller that frees each body before reading the next
// allocates nothing per body once the buffer has grown to the bodies'
// size. Waiting for a body to start is not bounded — an idle stream is
// not a failed one; the timeout runs from the body's first byte, so a
// stall inside one still fails the read.
func (c *BatchConn) ReadBatch() ([]byte, func(), error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for c.r.Buffered() == 0 {
		_, err := c.r.Peek(1)
		if err == nil {
			break
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, nil, fmt.Errorf("batchconn: header: %w", err)
		}
		// Idle past the deadline the last body armed: wait on without one.
		_ = c.conn.SetReadDeadline(time.Time{})
	}
	c.io.refresh()
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return nil, nil, fmt.Errorf("batchconn: header: %w", err)
	}
	if n > MaxBatchBytes {
		return nil, nil, fmt.Errorf("batchconn: announced body %d bytes exceeds cap %d", n, MaxBatchBytes)
	}
	dst := c.get(int(n))
	if _, err := c.io.readRaw(dst); err != nil {
		c.release(dst)
		return nil, nil, fmt.Errorf("batchconn: body: %w", err)
	}
	c.bmu.Lock()
	defer c.bmu.Unlock()
	if c.out != nil {
		// The previous body is still out: this one gets a free of its own.
		return dst, func() { c.release(dst) }, nil
	}
	c.out = dst
	return dst, c.freeOut, nil
}

// get returns a buffer of length n: the spare when it is large enough,
// else a fresh one.
func (c *BatchConn) get(n int) []byte {
	if n >= bigBody {
		return offheap.Bodies.Map(n)
	}
	c.bmu.Lock()
	if b := c.spare; n > 0 && cap(b) >= n {
		c.spare = nil
		c.bmu.Unlock()
		return b[:n]
	}
	c.bmu.Unlock()
	return make([]byte, n)
}

// release ends a body's use: a small buffer becomes the spare if it is
// the larger, a big one is unmapped.
func (c *BatchConn) release(b []byte) {
	if cap(b) >= bigBody {
		offheap.Bodies.Unmap(b)
		return
	}
	c.bmu.Lock()
	if cap(b) > cap(c.spare) {
		c.spare = b[:0]
	}
	c.bmu.Unlock()
}

// Close closes the underlying connection.
func (c *BatchConn) Close() error { return c.conn.Close() }
