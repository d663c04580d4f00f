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

	pool bufPool
	hdr  [binary.MaxVarintLen64]byte
	vec  vecScratch // guarded by wmu
}

// NewBatchConn wraps conn. timeout, when positive, acts as a per-frame
// idle timeout (the deadline refreshes on every chunk), not a
// whole-transfer budget; a reader waiting between bodies waits unbounded.
func NewBatchConn(conn net.Conn, timeout time.Duration) *BatchConn {
	r := bufio.NewReader(conn)
	return &BatchConn{
		conn: conn,
		r:    r,
		io:   frameIO{conn: conn, r: r, timeout: timeout},
	}
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

// ReadBatch receives the next body into a pooled buffer. The returned
// free func recycles the buffer; the caller must not touch the slice
// after calling it. free is non-nil exactly when err is nil. Waiting for
// a body to start is not bounded — an idle stream is not a failed one;
// the timeout runs from the body's first byte, so a stall inside one
// still fails the read.
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
	dst := c.pool.get(int(n))
	if _, err := c.io.readRaw(dst); err != nil {
		c.pool.release(dst)
		return nil, nil, fmt.Errorf("batchconn: body: %w", err)
	}
	return dst, func() { c.pool.release(dst) }, nil
}

// PoolStats reports the receive-buffer pool's reuse counters.
func (c *BatchConn) PoolStats() PoolStats {
	return c.pool.stats()
}

// Close closes the underlying connection.
func (c *BatchConn) Close() error { return c.conn.Close() }
