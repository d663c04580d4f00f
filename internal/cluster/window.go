package cluster

import (
	"sr3/internal/stream"
)

// window is a relay's retained replay window: the most recent tuples of
// one edge, kept in the form they travel in. A tuple is encoded once, at
// admission, into its batch-codec record (stream.AppendTupleRecord); the
// record bytes are appended to fixed-size chunks and a 16-byte side
// record per tuple says where they start. Neither holds a pointer, so
// the garbage collector has nothing to scan however many tuples are
// retained, and a wire frame — first send or replay — is a header plus
// slices of bytes that already exist.
//
// Tuples are numbered in admission order. Four sequence numbers split
// the retained range [recs.head, recs.tail()):
//
//	recs.head <= written <= sent <= recs.tail()
//
// [recs.head, written) is on the wire and may be trimmed; [written, sent)
// is the frame the sender holds slices of right now, so its chunks must
// not be recycled yet; [sent, tail) is unsent. Everything below
// replayUntil goes out as replay class (a reconnect marked it so).
// Because the numbers only grow, trimming moves recs.head and nothing
// else.
//
// Memory follows use: the side-record ring doubles as tuples arrive and
// chunks are allocated as bytes arrive, so an edge that carried nothing
// holds nothing. Once the owner trims as fast as it admits, the chunk
// the head leaves behind is the chunk the tail needs next.
//
// A window is not safe for concurrent use; the relay guards it with its
// mutex. Slices returned by take stay valid until wrote, unsend or
// unsendAll.
type window struct {
	recs   ring[winRec]
	chunks ring[[]byte] // record bytes in admission order; len is the fill
	spare  []byte       // one emptied chunk awaiting reuse

	written     uint64
	sent        uint64
	replayUntil uint64
}

// windowChunkBytes is the capacity of one chunk. A record never spans
// chunks (a frame's records are then at most one slice per chunk); one
// longer than a chunk gets a chunk of its own size.
const windowChunkBytes = 64 << 10

// winRec.off is 16 bits wide.
const _ = uint16(windowChunkBytes - 1)

// winRec locates one retained tuple's record.
type winRec struct {
	at    int64  // enqueue time, UnixNano (event-time lag basis)
	chunk uint32 // low bits of the chunk's sequence number in chunks
	off   uint16 // record start within the chunk
	class stream.TrafficClass
}

func (w *window) len() int { return w.recs.n }

// trimmable reports whether the oldest retained tuple is on the wire.
func (w *window) trimmable() bool { return w.written > w.recs.head }

// unsent reports whether take has anything to hand out.
func (w *window) unsent() bool { return w.sent < w.recs.tail() }

// admit retains one encoded record at the tail.
func (w *window) admit(rec []byte, class stream.TrafficClass, at int64) {
	if w.chunks.n == 0 || len(*w.chunks.last())+len(rec) > cap(*w.chunks.last()) {
		w.chunks.push(w.newChunk(len(rec)))
	}
	c := w.chunks.last()
	off := len(*c)
	*c = append(*c, rec...)
	w.recs.push(winRec{at: at, chunk: uint32(w.chunks.tail() - 1), off: uint16(off), class: class})
}

func (w *window) newChunk(need int) []byte {
	if need > windowChunkBytes {
		return make([]byte, 0, need)
	}
	if c := w.spare; c != nil {
		w.spare = nil
		return c
	}
	return make([]byte, 0, windowChunkBytes)
}

// trim drops the oldest retained tuple (the caller checked trimmable)
// and releases the chunks no retained record lies in any more.
func (w *window) trim() {
	w.recs.pop()
	keep := w.chunks.tail() - 1 // empty window: admission continues in the last chunk
	if w.recs.n > 0 {
		keep = w.chunkSeq(w.recs.at(w.recs.head))
	}
	for w.chunks.head < keep {
		c := w.chunks.pop()
		if cap(c) == windowChunkBytes {
			w.spare = c[:0]
		}
	}
}

// chunkSeq widens a record's chunk number against the live range.
func (w *window) chunkSeq(r *winRec) uint64 {
	return w.chunks.head + uint64(r.chunk-uint32(w.chunks.head))
}

// wrote declares every taken tuple on the wire — the sender is done
// with the slices take gave it — and reports whether that made
// anything newly trimmable.
func (w *window) wrote() bool {
	if w.written == w.sent {
		return false
	}
	w.written = w.sent
	return true
}

// take marks the next run of unsent tuples sent — at most limit, all of
// one class, a replay stretch never running into live tuples — and
// appends their record bytes to segs, one slice per chunk touched. The
// caller checked unsent.
func (w *window) take(limit int, segs [][]byte) (_ [][]byte, n int, class stream.TrafficClass, oldestNs int64) {
	first := w.recs.at(w.sent)
	class = first.class
	end := w.recs.tail()
	forced := w.sent < w.replayUntil
	if forced {
		// Inside the reconnect window: the whole stretch goes out as
		// replay class regardless of original admission class.
		class = stream.ClassReplay
		end = w.replayUntil
	}
	if end-w.sent > uint64(limit) {
		end = w.sent + uint64(limit)
	}
	chunk, from := w.chunkSeq(first), int(first.off)
	seq := w.sent + 1
	for ; seq < end; seq++ {
		r := w.recs.at(seq)
		if !forced && r.class != class {
			break
		}
		if c := w.chunkSeq(r); c != chunk {
			segs = append(segs, (*w.chunks.at(chunk))[from:])
			chunk, from = c, int(r.off)
		}
	}
	// The run's last record ends where the next one in its chunk starts,
	// or at the chunk's fill.
	c := *w.chunks.at(chunk)
	to := len(c)
	if seq < w.recs.tail() {
		if r := w.recs.at(seq); w.chunkSeq(r) == chunk {
			to = int(r.off)
		}
	}
	segs = append(segs, c[from:to])
	n = int(seq - w.sent)
	w.sent = seq
	return segs, n, class, first.at
}

// unsend returns the last n taken tuples to the unsent region (the send
// failed before the bytes hit the wire).
func (w *window) unsend(n int) {
	if back := w.sent - w.recs.head; uint64(n) > back {
		n = int(back)
	}
	w.sent -= uint64(n)
	if w.written > w.sent {
		w.written = w.sent
	}
}

// unsendAll marks the whole retained window unsent and flags it as the
// reconnect replay window (resent as replay class).
func (w *window) unsendAll() {
	w.sent, w.written = w.recs.head, w.recs.head
	w.replayUntil = w.recs.tail()
}

// ring is a FIFO over a power-of-two circular buffer that doubles when
// full. Elements are addressed by sequence number: the first ever pushed
// is 0, head is the oldest still held.
type ring[T any] struct {
	buf  []T
	head uint64
	n    int
}

func (q *ring[T]) tail() uint64 { return q.head + uint64(q.n) }

func (q *ring[T]) at(seq uint64) *T { return &q.buf[seq&uint64(len(q.buf)-1)] }

func (q *ring[T]) last() *T { return q.at(q.tail() - 1) }

func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		grown := ring[T]{buf: make([]T, max(8, 2*len(q.buf))), head: q.head, n: q.n}
		for s := q.head; s < q.tail(); s++ {
			*grown.at(s) = *q.at(s)
		}
		*q = grown
	}
	q.n++
	*q.last() = v
}

func (q *ring[T]) pop() T {
	p := q.at(q.head)
	v := *p
	var zero T
	*p = zero
	q.head++
	q.n--
	return v
}
