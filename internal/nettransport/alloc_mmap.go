//go:build unix && !race

package nettransport

import "syscall"

// mapBig returns c zeroed bytes mapped outside the Go heap: the collector
// neither scans nor counts them, so a state-sized body does not raise the
// heap goal, and the pages it never touches are never resident. Should the
// kernel refuse the mapping, the heap serves instead.
func mapBig(c int) []byte {
	b, err := syscall.Mmap(-1, 0, c, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, c)
	}
	return b
}

// unmapBig returns a buffer mapBig made to the kernel; b spans all of it.
// A reader that outlived the release faults. Munmap refuses a heap
// fallback, which the collector then frees.
func unmapBig(b []byte) { _ = syscall.Munmap(b) }

// pooledBig marks a buffer filed in the pool for the next body of its size.
func pooledBig([]byte) {}
