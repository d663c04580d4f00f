package nettransport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// MaxBatchBytes caps a single batch body on the wire. A corrupt or
// hostile length header must not translate into an arbitrary
// allocation on the receiver.
const MaxBatchBytes = 64 << 20

// BatchConn carries length-delimited binary bodies — in SR3, encoded
// tuple batches (stream.EncodeTupleBatch frames) — over one connection
// using the same chunked, credit-windowed data plane as the transport's
// raw message path. Each body is a uvarint length header followed by
// the body bytes on the writeRaw chunk grid, so bodies larger than the
// credit window stream without unbounded receiver buffering.
//
// A BatchConn is directional: one endpoint writes, the peer reads
// (credit grants flow back over the same connection, so interleaving
// both roles on one connection would corrupt the stream). WriteBatch
// accepts multiple segments and hands each chunk to the kernel as a
// single writev, the length header riding in the first — callers can
// send a pooled header and a pooled payload without gluing them
// together first, and a body that fits one chunk costs one syscall.
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
// whole-transfer budget.
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
// after calling it. free is non-nil exactly when err is nil.
func (c *BatchConn) ReadBatch() ([]byte, func(), error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
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
		c.pool.put(dst)
		return nil, nil, fmt.Errorf("batchconn: body: %w", err)
	}
	return dst, func() { c.pool.put(dst) }, nil
}

// PoolStats reports the receive-buffer pool's reuse counters.
func (c *BatchConn) PoolStats() PoolStats {
	return PoolStats{Hits: c.pool.hits.Load(), Misses: c.pool.misses.Load()}
}

// Close closes the underlying connection.
func (c *BatchConn) Close() error { return c.conn.Close() }
