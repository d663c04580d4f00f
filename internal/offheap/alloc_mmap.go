//go:build unix && !race

package offheap

import "syscall"

// Mapped reports that Map really maps memory outside the Go heap.
const Mapped = true

// mapBytes maps n zeroed bytes. Should the kernel refuse, the heap serves
// instead; Unmap then leaves the buffer to the collector.
func mapBytes(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n)
	}
	return b
}

// unmapBytes gives a mapping back to the kernel. Munmap refuses a heap
// fallback, which the collector then frees.
func unmapBytes(b []byte) { _ = syscall.Munmap(b) }

// Retire marks bytes that stay mapped as freed (a store's slot on its
// class's free list). A mapped build leaves them as they are.
func Retire([]byte) {}
