//go:build !unix || race

package nettransport

// mapBig returns c zeroed bytes from the Go heap: the race detector sees no
// memory outside it, and there is no anonymous mmap off unix.
func mapBig(c int) []byte { return make([]byte, c) }

// unmapBig drops a buffer mapBig made, poisoned first, so a reader that
// outlived the release reads garbage — a failed checksum — and races the
// poisoning write under the race detector, instead of passing unnoticed.
func unmapBig(b []byte) { poison(b) }

// pooledBig poisons a buffer filed in the pool: by contract nothing reads it
// until the next body of its size is read into it.
func pooledBig(b []byte) { poison(b) }

// poisonByte fills a released buffer.
const poisonByte = 0xdb

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
