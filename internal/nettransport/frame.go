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
)

// The data-plane framing: a message's Raw body travels after the gob
// header as a sequence of fixed-size chunk frames under a credit-based
// flow-control window, instead of being gob-encoded inside the payload.
// Chunking gives three things gob cannot: the sender writes straight from
// the source slice (no serialization copy), the receiver reads straight
// into the destination buffer (one pooled allocation for the whole body,
// zero per-chunk allocations), and the per-frame deadline refresh makes
// the I/O timeout an idle timeout rather than a whole-transfer budget.
//
// The credit schedule is deterministic on both sides: the total length is
// announced in the gob header, so sender and receiver agree on the exact
// number of grants (no trailing credit bytes to desynchronize the next
// gob frame on the connection).
const (
	// DefaultChunkSize is the frame payload size for raw bodies.
	DefaultChunkSize = 64 << 10
	// windowFrames is the sender's credit window: at most this many
	// frames may be unacknowledged in flight, bounding receiver-side
	// buffering to windowFrames×DefaultChunkSize regardless of body size.
	windowFrames = 32
	// creditEvery is how many consumed frames earn one credit grant. Each
	// grant refills creditEvery slots of the window, so acks amortize to
	// one byte per creditEvery frames while the pipe stays full.
	creditEvery = 16
)

// frameCount returns the number of chunk frames for a body of n bytes.
func frameCount(n int) int64 {
	return (int64(n) + DefaultChunkSize - 1) / DefaultChunkSize
}

// grantCount returns how many credit grants a body of f frames requires —
// one per window stall the sender hits. Both ends compute it so every
// credit byte written is read.
func grantCount(f int64) int64 {
	if f <= windowFrames {
		return 0
	}
	return (f-windowFrames-1)/creditEvery + 1
}

// bufPool recycles raw-body destination buffers across calls, with hit
// accounting so the bench harness can report the pool's effectiveness.
// Buffers are filed by size class — class k holds capacities in
// [2^k, 2^(k+1)) — and a body only ever draws from its own length's class,
// so a reused buffer is less than twice the body: a share-sized buffer is
// never handed to (and pinned behind) a 1 KB message.
type bufPool struct {
	classes [bits.UintSize]sync.Pool
	hits    atomic.Int64
	misses  atomic.Int64
}

// get returns a buffer of length n, reusing one of n's class when its
// capacity suffices.
func (bp *bufPool) get(n int) []byte {
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

// put returns a buffer for reuse.
func (bp *bufPool) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	bp.classes[bits.Len(uint(cap(b)))-1].Put(b[:0])
}

// PoolStats reports the raw-buffer pool's hit/miss counters.
type PoolStats struct {
	Hits   int64
	Misses int64
}

// HitRate returns hits/(hits+misses), or 0 with no traffic.
func (s PoolStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// frameIO is one side of a connection's data plane. All reads go through
// the shared buffered reader (the gob decoder buffers ahead, so bypassing
// it would lose bytes); writes go straight to the connection.
type frameIO struct {
	conn    net.Conn
	r       *bufio.Reader
	timeout time.Duration
	// stallNs, when non-nil, accumulates time writeRaw spends blocked
	// waiting for credit grants — the backpressure measurement behind
	// DataPlaneStats.StallNanos and traced PhaseStall spans.
	stallNs *int64
}

// refresh pushes the connection deadline forward so the I/O timeout acts
// per-frame (idle timeout), not per-transfer.
func (d frameIO) refresh() {
	if d.timeout > 0 {
		_ = d.conn.SetDeadline(time.Now().Add(d.timeout))
	}
}

// writeRaw streams raw over the connection as chunk frames under the
// credit window. The total length was already announced in the gob
// header, so frames carry no per-frame length — the chunk grid is implied
// by (len(raw), DefaultChunkSize). Returns frames written.
func (d frameIO) writeRaw(raw []byte) (int64, error) {
	frames := int64(0)
	inFlight := int64(0)
	var credit [1]byte
	for off := 0; off < len(raw); {
		if inFlight >= windowFrames {
			// Window exhausted: wait for one credit grant from the
			// receiver before sending more.
			d.refresh()
			waitStart := time.Now()
			if _, err := io.ReadFull(d.r, credit[:]); err != nil {
				return frames, fmt.Errorf("raw credit: %w", err)
			}
			if d.stallNs != nil {
				*d.stallNs += time.Since(waitStart).Nanoseconds()
			}
			inFlight -= creditEvery
		}
		end := off + DefaultChunkSize
		if end > len(raw) {
			end = len(raw)
		}
		d.refresh()
		if _, err := d.conn.Write(raw[off:end]); err != nil {
			return frames, fmt.Errorf("raw frame: %w", err)
		}
		off = end
		frames++
		inFlight++
	}
	return frames, nil
}

// vecScratch is the reusable iovec backing of a vectored writer: bufs is
// rebuilt per chunk, out is the copy net.Buffers.WriteTo consumes. Both
// live in the owning connection so a steady-state write allocates
// nothing.
type vecScratch struct {
	bufs, out net.Buffers
}

// writeRawVec streams a multi-segment body exactly as writeRaw would
// stream the concatenation: same chunk grid over the total length, same
// deterministic credit schedule, so the receiver's readRaw is oblivious
// to the segmentation. Each chunk goes to the kernel as one net.Buffers
// (writev) call — segments are never copied into a staging buffer.
// prefix (the caller's length announcement) rides in front of the first
// chunk in that chunk's writev; it is not part of the chunk grid, the
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
	inFlight := int64(0)
	var credit [1]byte
	si, so := 0, 0 // cursor: segment index, offset within it
	for off := 0; off < total; {
		if inFlight >= windowFrames {
			d.refresh()
			waitStart := time.Now()
			if _, err := io.ReadFull(d.r, credit[:]); err != nil {
				return frames, fmt.Errorf("raw credit: %w", err)
			}
			if d.stallNs != nil {
				*d.stallNs += time.Since(waitStart).Nanoseconds()
			}
			inFlight -= creditEvery
		}
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
		inFlight++
	}
	return frames, nil
}

// readRaw receives a raw body into dst (len(dst) is the announced total),
// granting exactly grantCount(frames) credits at consumption milestones.
// Returns frames read.
func (d frameIO) readRaw(dst []byte) (int64, error) {
	frames := int64(0)
	grants, maxGrants := int64(0), grantCount(frameCount(len(dst)))
	credit := [1]byte{1}
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
		if frames%creditEvery == 0 && grants < maxGrants {
			grants++
			d.refresh()
			if _, err := d.conn.Write(credit[:]); err != nil {
				return frames, fmt.Errorf("raw credit: %w", err)
			}
		}
	}
	return frames, nil
}
