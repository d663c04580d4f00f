// Package offheap maps byte buffers outside the Go heap, for the bytes
// whose size is the state's: a holder's shard replicas, a recovery's
// fetched bodies, a keyed store's values. The collector neither scans nor
// counts such memory, so it does not raise the heap goal (GOGC would
// otherwise double every state-sized byte), pages never touched are never
// resident, and an unmapped buffer is back with the kernel at once: RSS is
// what is actually held.
//
// On a `unix && !race` build (alloc_mmap.go) Map is an anonymous mmap and
// Unmap a munmap, so a reader that outlived the release faults. Under the
// race detector and off unix (alloc_heap.go) Map is a heap allocation —
// the race detector sees no memory outside the heap — and Unmap poisons
// the bytes with PoisonByte before dropping them, so a late reader races
// the poisoning write or reads garbage instead of passing unnoticed.
//
// Every mapping belongs to one Use, which counts its live bytes.
package offheap

import "sync/atomic"

// PoisonByte fills a buffer released on a heap build (Mapped false).
const PoisonByte = 0xdb

// Use is one user of off-heap memory and its byte counters.
type Use struct {
	live, total atomic.Int64
}

var (
	// Bodies are raw message bodies of 1 MiB and more
	// (internal/nettransport): a holder's pushes, fetch and collect
	// replies.
	Bodies = &Use{}
	// Stores are keyed stores' values (internal/state.MapStore).
	Stores = &Use{}
)

// Map returns n zeroed bytes outside the Go heap (nil for n == 0). Give
// them back with Unmap, whole.
func (u *Use) Map(n int) []byte {
	if n == 0 {
		return nil
	}
	b := mapBytes(n)
	u.live.Add(int64(n))
	u.total.Add(int64(n))
	return b
}

// Unmap releases a buffer Map returned; b must span all of it (its
// capacity is used).
func (u *Use) Unmap(b []byte) {
	if cap(b) == 0 {
		return
	}
	u.live.Add(-int64(cap(b)))
	unmapBytes(b[:cap(b)])
}

// Live is the bytes mapped and not yet unmapped.
func (u *Use) Live() int64 { return u.live.Load() }

// Total is every byte ever mapped: what a test sums with the heap's
// TotalAlloc to bound what an operation allocated.
func (u *Use) Total() int64 { return u.total.Load() }

func poison(b []byte) {
	for i := range b {
		b[i] = PoisonByte
	}
}
