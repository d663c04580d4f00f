package nettransport

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sr3/internal/offheap"
)

// The data-plane framing: a message's Raw body travels after the gob
// header as a sequence of fixed-size chunk frames, instead of being
// gob-encoded inside the payload. Chunking gives three things gob cannot:
// the sender writes straight from the source slice (no serialization
// copy), the receiver reads straight into the destination buffer (one
// buffer for the whole body, taken before the first byte, no allocation
// per chunk), and the per-frame deadline refresh makes the I/O timeout an
// idle timeout rather than a whole-transfer budget.
//
// There is no flow control above TCP's: the receiver reads into a buffer
// of the announced length, so the only bytes in between are the kernel's
// socket buffers, which TCP's receive window already bounds.

// DefaultChunkSize is the frame payload size for raw bodies.
const DefaultChunkSize = 64 << 10

// bufPool recycles raw-body destination buffers across calls, with hit
// accounting so the bench harness can report the pool's effectiveness.
// Buffers are filed by size class — class k holds capacities in
// [2^k, 2^(k+1)) — and a body only ever draws from its own length's class,
// so a reused buffer is less than twice the body.
//
// A body of bigBody bytes or more — a holder's share of a state, a fetched
// shard, a collected batch — is not pooled: it is mapped outside the Go
// heap at its exact size (offheap.Bodies) and unmapped when it is
// released, so the collector neither counts it towards its goal nor
// decides when its memory goes, and no spare of it stays resident for a
// push that may never come.
type bufPool struct {
	classes [bits.UintSize]sync.Pool // bodies under bigBody
	hits    atomic.Int64
	misses  atomic.Int64
}

// bigBody is the smallest body mapped outside the heap.
const bigBody = 1 << 20

// get returns a buffer of length n, reusing one of n's class when its
// capacity suffices; a big one is always fresh.
func (bp *bufPool) get(n int) []byte {
	if n >= bigBody {
		bp.misses.Add(1)
		return offheap.Bodies.Map(n)
	}
	if n > 0 {
		if v := bp.classes[bits.Len(uint(n))-1].Get(); v != nil {
			b := v.([]byte)
			if cap(b) >= n {
				bp.hits.Add(1)
				return b[:n]
			}
			// Too small for this body: drop it rather than hold both, so
			// a class converges on the largest body it sees.
		}
	}
	bp.misses.Add(1)
	return make([]byte, n)
}

// release ends a body's use: a small buffer goes back to its class, a big
// one is unmapped.
func (bp *bufPool) release(b []byte) {
	switch {
	case cap(b) == 0:
	case cap(b) < bigBody:
		bp.classes[bits.Len(uint(cap(b)))-1].Put(b[:0])
	default:
		offheap.Bodies.Unmap(b)
	}
}

// PoolStats reports the raw-buffer pool's hit/miss counters: a hit is a
// body read into a recycled buffer, a miss one that needed a fresh buffer
// (every big body). What big bodies hold outside the heap is
// offheap.Bodies'.
type PoolStats struct {
	Hits   int64
	Misses int64
}

func (bp *bufPool) stats() PoolStats {
	return PoolStats{Hits: bp.hits.Load(), Misses: bp.misses.Load()}
}

// frameIO is one side of a connection's data plane. All reads go through
// the shared buffered reader (the gob decoder buffers ahead, so bypassing
// it would lose bytes); writes go straight to the connection.
type frameIO struct {
	conn    net.Conn
	r       *bufio.Reader
	timeout time.Duration
}

// refresh pushes the connection deadline forward so the I/O timeout acts
// per-frame (idle timeout), not per-transfer.
func (d frameIO) refresh() {
	if d.timeout > 0 {
		_ = d.conn.SetDeadline(time.Now().Add(d.timeout))
	}
}

// vecScratch is the reusable iovec backing of a vectored writer: bufs is
// rebuilt per chunk, out is the copy net.Buffers.WriteTo consumes. Both
// live in the owning connection so a steady-state write allocates
// nothing.
type vecScratch struct {
	bufs, out net.Buffers
}

// writeRawVec streams a body of one or more segments over the connection
// as chunk frames. The total length was already announced in the header,
// so frames carry no per-frame length: the chunk grid is implied by
// (total, DefaultChunkSize), whatever the segmentation, and the receiver's
// readRaw sees the concatenation. Each chunk goes to the kernel as one
// net.Buffers (writev) call — segments are never copied into a staging
// buffer. prefix (the caller's length announcement) rides in front of the
// first chunk in that chunk's writev; it is not part of the chunk grid, the
// receiver has consumed it before readRaw starts counting. total must
// equal the summed segment lengths. Returns frames written.
func (d frameIO) writeRawVec(vs *vecScratch, prefix []byte, segs [][]byte, total int) (int64, error) {
	if total == 0 {
		d.refresh()
		if _, err := d.conn.Write(prefix); err != nil {
			return 0, fmt.Errorf("raw prefix: %w", err)
		}
		return 0, nil
	}
	frames := int64(0)
	si, so := 0, 0 // cursor: segment index, offset within it
	for off := 0; off < total; {
		chunk := DefaultChunkSize
		if total-off < chunk {
			chunk = total - off
		}
		vec := vs.bufs[:0]
		if off == 0 && len(prefix) > 0 {
			vec = append(vec, prefix)
		}
		for need := chunk; need > 0; {
			if si >= len(segs) {
				return frames, fmt.Errorf("raw vec: segments end %d bytes short of total %d", need, total)
			}
			avail := len(segs[si]) - so
			if avail == 0 {
				si++
				so = 0
				continue
			}
			take := avail
			if take > need {
				take = need
			}
			vec = append(vec, segs[si][so:so+take])
			so += take
			need -= take
		}
		vs.bufs = vec
		d.refresh()
		// WriteTo consumes its receiver, so hand it a copy of the slice
		// header; bufs is rebuilt from scratch next chunk anyway.
		vs.out = vec
		if _, err := vs.out.WriteTo(d.conn); err != nil {
			return frames, fmt.Errorf("raw frame: %w", err)
		}
		off += chunk
		frames++
	}
	return frames, nil
}

// readRaw receives a raw body into dst (len(dst) is the announced total),
// one chunk frame per read. Returns frames read.
func (d frameIO) readRaw(dst []byte) (int64, error) {
	frames := int64(0)
	for off := 0; off < len(dst); {
		end := off + DefaultChunkSize
		if end > len(dst) {
			end = len(dst)
		}
		d.refresh()
		if _, err := io.ReadFull(d.r, dst[off:end]); err != nil {
			return frames, fmt.Errorf("raw frame: %w", err)
		}
		off = end
		frames++
	}
	return frames, nil
}
