package state

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
)

// BloomFilter is the space-efficient membership state used by the
// click-fraud-detection application (paper Fig 1 bottom): it memorizes
// previously seen click identities (IPs, cookies) to flag duplicates.
type BloomFilter struct {
	mu     sync.RWMutex
	bits   []byte
	m      uint64 // number of bits
	k      int    // number of hash functions
	adds   uint64
	hashes []uint64 // scratch, guarded by mu
}

var _ Store = (*BloomFilter)(nil)

// NewBloomFilter sizes a filter for the expected number of items at the
// given false-positive rate.
func NewBloomFilter(expectedItems int, fpRate float64) *BloomFilter {
	if expectedItems < 1 {
		expectedItems = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	mBits := uint64(math.Ceil(-float64(expectedItems) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if mBits < 64 {
		mBits = 64
	}
	k := int(math.Round(float64(mBits) / float64(expectedItems) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return &BloomFilter{
		bits:   make([]byte, (mBits+7)/8),
		m:      mBits,
		k:      k,
		hashes: make([]uint64, k),
	}
}

// indices computes the k bit positions for key (double hashing).
func (f *BloomFilter) indices(key string) []uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	h1 := h.Sum64()
	h2 := h1>>33 | h1<<31
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	for i := 0; i < f.k; i++ {
		f.hashes[i] = (h1 + uint64(i)*h2) % f.m
	}
	return f.hashes
}

// Add inserts key into the filter.
func (f *BloomFilter) Add(key string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, idx := range f.indices(key) {
		f.bits[idx/8] |= 1 << (idx % 8)
	}
	f.adds++
}

// Test reports whether key may have been added (false positives possible,
// false negatives impossible).
func (f *BloomFilter) Test(key string) bool {
	f.mu.Lock() // indices uses shared scratch
	defer f.mu.Unlock()
	for _, idx := range f.indices(key) {
		if f.bits[idx/8]&(1<<(idx%8)) == 0 {
			return false
		}
	}
	return true
}

// Adds returns the number of Add calls.
func (f *BloomFilter) Adds() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.adds
}

// SizeBytes reports the in-memory filter size.
func (f *BloomFilter) SizeBytes() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.bits) + 32
}

// Snapshot serializes the filter.
func (f *BloomFilter) Snapshot() ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	buf := make([]byte, 0, len(f.bits)+28)
	buf = binary.BigEndian.AppendUint64(buf, f.m)
	buf = binary.BigEndian.AppendUint32(buf, uint32(f.k))
	buf = binary.BigEndian.AppendUint64(buf, f.adds)
	buf = appendBytes(buf, f.bits)
	return buf, nil
}

// View lends the filter's Snapshot as one segment: it has no native view.
func (f *BloomFilter) View() (View, error) {
	snap, err := f.Snapshot()
	return ViewOf(snap), err
}

// RestoreView restores the filter from a view, joined once when it has
// more than one segment: it has no native reader.
func (f *BloomFilter) RestoreView(v View) error { return f.Restore(v.Bytes()) }

// Restore replaces the filter from a snapshot.
func (f *BloomFilter) Restore(data []byte) error {
	if len(data) < 20 {
		return ErrTooShort
	}
	m := binary.BigEndian.Uint64(data[0:8])
	k := int(binary.BigEndian.Uint32(data[8:12]))
	adds := binary.BigEndian.Uint64(data[12:20])
	bits, rest, err := readBytes(data[20:])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("bloom restore: trailing bytes: %w", ErrCorrupt)
	}
	if uint64(len(bits)) != (m+7)/8 || k < 1 {
		return fmt.Errorf("bloom restore: inconsistent geometry: %w", ErrCorrupt)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m = m
	f.k = k
	f.adds = adds
	f.bits = bits
	f.hashes = make([]uint64, k)
	return nil
}
