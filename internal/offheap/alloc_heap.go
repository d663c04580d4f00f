//go:build !unix || race

package offheap

// Mapped reports that Map serves from the Go heap on this build.
const Mapped = false

func mapBytes(n int) []byte { return make([]byte, n) }

// unmapBytes poisons a buffer and leaves it to the collector.
func unmapBytes(b []byte) { poison(b) }

// Retire poisons bytes that stay allocated but are freed (a store's slot
// on its class's free list): a reader that outlived the free reads
// PoisonByte.
func Retire(b []byte) { poison(b) }
