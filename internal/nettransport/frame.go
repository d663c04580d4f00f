package nettransport

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"net"
	"runtime"
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
//
// A body of bigBody bytes or more — a holder's share of a state, a fetched
// shard, a collected batch — is mapped outside the Go heap (mapBig) and
// unmapped when it is released, so the collector neither counts it towards
// its goal nor decides when its memory goes. Such a buffer is filed for
// reuse only when its keeper expects the next body of its size (release
// with reuse: a holder's superseded push), in the pool's own lists rather
// than a sync.Pool, whose per-P slots would hide a buffer put back on one P
// from a get on another: the buffer a superseded version frees must be the
// one the next push of that state is read into, on whatever goroutine
// serves it. As in a sync.Pool, a filed buffer that lies unused through two
// garbage collections goes.
type bufPool struct {
	classes [bits.UintSize]sync.Pool // bodies under bigBody
	hits    atomic.Int64
	misses  atomic.Int64

	mu sync.Mutex
	// big and aged file bodies of bigBody and up by class: aged is what big
	// held at the last collection, unmapped at the next one.
	big, aged map[int][][]byte
	watching  bool // a gcWatch is armed
	// allocated is the capacity the big misses mapped; mapped what of it is
	// not unmapped yet, pooled what of that is filed in big and aged.
	allocated, mapped, pooled int64
}

// bigBody is the smallest body the pool maps outside the heap.
const bigBody = 1 << 20

// get returns a buffer of length n, reusing one of n's class when its
// capacity suffices. A fresh big buffer gets headroom — up to an eighth
// more capacity, never past its class — so a body that grows a little
// between two uses of the buffer (a holder's share of a state drifting
// between saves) still lands in it; pages it never touches cost nothing.
func (bp *bufPool) get(n int) []byte {
	if n >= bigBody {
		if b := bp.takeBig(n); b != nil {
			bp.hits.Add(1)
			return b
		}
		c := min(n+n/8, 1<<bits.Len(uint(n))-1)
		bp.misses.Add(1)
		bp.mu.Lock()
		bp.allocated += int64(c)
		bp.mapped += int64(c)
		bp.mu.Unlock()
		return mapBig(c)[:n]
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

// takeBig removes from n's class a buffer that holds n bytes, the most
// recently filed first.
func (bp *bufPool) takeBig(n int) []byte {
	k := bits.Len(uint(n)) - 1
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, list := range []map[int][][]byte{bp.big, bp.aged} {
		bufs := list[k]
		for i := len(bufs) - 1; i >= 0; i-- {
			if b := bufs[i]; cap(b) >= n {
				list[k] = append(bufs[:i], bufs[i+1:]...)
				bp.pooled -= int64(cap(b))
				return b[:n]
			}
		}
	}
	return nil
}

// release ends a body's use. A small buffer always goes back to its class;
// a big one is filed for the next body of its class when reuse is set, and
// unmapped at once otherwise.
func (bp *bufPool) release(b []byte, reuse bool) {
	switch {
	case cap(b) == 0:
	case cap(b) < bigBody:
		bp.classes[bits.Len(uint(cap(b)))-1].Put(b[:0])
	case reuse:
		bp.file(b[:cap(b)])
	default:
		bp.unmap(b)
	}
}

// file keeps a big buffer for the next body of its class.
func (bp *bufPool) file(b []byte) {
	pooledBig(b)
	k := bits.Len(uint(cap(b))) - 1
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.big == nil {
		bp.big = map[int][][]byte{}
	}
	bp.big[k] = append(bp.big[k], b[:0])
	bp.pooled += int64(cap(b))
	if !bp.watching {
		bp.watching = true
		runtime.SetFinalizer(&gcWatch{bp: bp}, (*gcWatch).collected)
	}
}

// unmap gives a big buffer, whole, back to the system.
func (bp *bufPool) unmap(b []byte) {
	bp.mu.Lock()
	bp.mapped -= int64(cap(b))
	bp.mu.Unlock()
	unmapBig(b[:cap(b)])
}

// gcWatch is garbage the moment it is armed: its finalizer runs after the
// next collection, ages the pool's big buffers and re-arms while any are
// left — so a pool that holds none is not kept alive by its watch.
type gcWatch struct{ bp *bufPool }

func (w *gcWatch) collected() {
	bp := w.bp
	bp.mu.Lock()
	stale := bp.aged
	bp.aged, bp.big = bp.big, nil
	bp.watching = false
	for _, bufs := range bp.aged {
		bp.watching = bp.watching || len(bufs) > 0
	}
	for _, bufs := range stale {
		for _, b := range bufs {
			bp.pooled -= int64(cap(b))
			bp.mapped -= int64(cap(b))
		}
	}
	if bp.watching {
		runtime.SetFinalizer(w, (*gcWatch).collected)
	}
	bp.mu.Unlock()
	for _, bufs := range stale {
		for _, b := range bufs {
			unmapBig(b[:cap(b)])
		}
	}
}

// PoolStats reports the raw-buffer pool's hit/miss counters and what its
// big bodies hold outside the Go heap.
type PoolStats struct {
	Hits   int64
	Misses int64
	// Allocated is the bytes of capacity the misses of big bodies mapped;
	// smaller bodies are the heap's and show in runtime.MemStats.
	Allocated int64
	// InUse is the mapped capacity of big bodies being read or kept, Pooled
	// that of big buffers filed for the next body of their size.
	InUse, Pooled int64
}

func (bp *bufPool) stats() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return PoolStats{Hits: bp.hits.Load(), Misses: bp.misses.Load(), Allocated: bp.allocated,
		InUse: bp.mapped - bp.pooled, Pooled: bp.pooled}
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
	// stallNs, when non-nil, accumulates time writeRawVec spends blocked
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

// vecScratch is the reusable iovec backing of a vectored writer: bufs is
// rebuilt per chunk, out is the copy net.Buffers.WriteTo consumes. Both
// live in the owning connection so a steady-state write allocates
// nothing.
type vecScratch struct {
	bufs, out net.Buffers
}

// writeRawVec streams a body of one or more segments over the connection
// as chunk frames under the credit window. The total length was already
// announced in the header, so frames carry no per-frame length: the chunk
// grid is implied by (total, DefaultChunkSize), whatever the segmentation,
// and the receiver's readRaw sees the concatenation. When the window is
// exhausted the writer waits for one credit grant from the receiver
// before sending more. Each chunk goes to the kernel as one net.Buffers
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
