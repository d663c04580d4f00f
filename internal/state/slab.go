package state

import (
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"unsafe"

	"sr3/internal/offheap"
)

// Slab geometry. A size class's first chunk is minChunk bytes and each
// further one twice the last, up to maxChunk, so a small store maps little
// and a big one makes few mappings. A value longer than maxChunk is a chunk
// of its own.
const (
	minChunk = 4 << 10
	maxChunk = 256 << 10
)

// slab holds a MapStore's values outside the Go heap (offheap.Stores), in
// chunks cut into equal slots, one slot size per class. Only its store
// touches it, under the store's write lock (RestoreView fills a fresh one
// nobody else sees yet), so it needs no lock of its own. When the store is
// collected a finalizer unmaps the lot.
type slab struct {
	classes map[int]*slabClass // by slot size
	chunks  []*chunk           // every chunk, by base address
}

// slabClass is the chunks of one slot size.
type slabClass struct {
	slot  int
	count int      // live chunks: sizes the next one
	room  []*chunk // the chunks with a free slot
}

// chunk is one mapping: slots of its class's size, or a single value of
// its own (class nil).
type chunk struct {
	mem   []byte
	base  uintptr
	class *slabClass
	next  int     // slots [0, next) were handed out at least once
	free  []int32 // slots handed back since, reused first
	used  int
}

func newSlab() *slab {
	s := &slab{classes: map[int]*slabClass{}}
	runtime.SetFinalizer(s, (*slab).release)
	return s
}

// slotSize is the slot that holds n bytes: n rounded up to an eighth of
// the power of two below it, so a slot wastes at most 12.5 % of itself, as
// Go's own size classes do. Sizes up to 16 are exact.
func slotSize(n int) int {
	if n <= 16 {
		return n
	}
	step := 1 << (bits.Len(uint(n-1)) - 4)
	return (n + step - 1) &^ (step - 1)
}

func addr(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

// alloc returns n bytes of the slab (nil for n == 0), to be handed back
// with free.
func (s *slab) alloc(n int) []byte {
	if n == 0 {
		return nil
	}
	if n > maxChunk {
		c := s.mapChunk(n, nil)
		c.used = 1
		return c.mem
	}
	slot := slotSize(n)
	cl := s.classes[slot]
	if cl == nil {
		cl = &slabClass{slot: slot}
		s.classes[slot] = cl
	}
	if len(cl.room) == 0 {
		size := max(slot, min(maxChunk, minChunk<<min(cl.count, 6)))
		cl.room = append(cl.room, s.mapChunk(size-size%slot, cl))
		cl.count++
	}
	c := cl.room[len(cl.room)-1]
	var i int
	if k := len(c.free); k > 0 {
		i, c.free = int(c.free[k-1]), c.free[:k-1]
	} else {
		i, c.next = c.next, c.next+1
	}
	if c.used++; c.used == len(c.mem)/slot {
		cl.room = cl.room[:len(cl.room)-1]
	}
	off := i * slot
	return c.mem[off : off+n : off+n]
}

// free hands back a value alloc returned. A chunk left with no value in
// use is unmapped.
func (s *slab) free(b []byte) {
	if cap(b) == 0 {
		return
	}
	p := addr(b)
	i := sort.Search(len(s.chunks), func(i int) bool { return s.chunks[i].base > p }) - 1
	c := s.chunks[i]
	cl := c.class
	if c.used--; c.used == 0 {
		s.chunks = slices.Delete(s.chunks, i, i+1)
		if cl != nil {
			cl.count--
			if j := slices.Index(cl.room, c); j >= 0 {
				cl.room = slices.Delete(cl.room, j, j+1)
			}
		}
		offheap.Stores.Unmap(c.mem)
		return
	}
	off := int(p - c.base)
	offheap.Retire(c.mem[off : off+cl.slot])
	c.free = append(c.free, int32(off/cl.slot))
	if c.used == len(c.mem)/cl.slot-1 {
		cl.room = append(cl.room, c) // it was full
	}
}

// mapChunk maps a chunk of n bytes and files it by address.
func (s *slab) mapChunk(n int, cl *slabClass) *chunk {
	c := &chunk{mem: offheap.Stores.Map(n), class: cl}
	c.base = addr(c.mem)
	i := sort.Search(len(s.chunks), func(i int) bool { return s.chunks[i].base > c.base })
	s.chunks = slices.Insert(s.chunks, i, c)
	return c
}

// release unmaps the whole slab: when its store is collected, or when
// RestoreView has swapped in a fresh one. The slab is not used again.
func (s *slab) release() {
	runtime.SetFinalizer(s, nil)
	for _, c := range s.chunks {
		offheap.Stores.Unmap(c.mem)
	}
	s.chunks, s.classes = nil, nil
}
