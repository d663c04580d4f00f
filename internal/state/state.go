// Package state provides the operator-state abstractions SR3 protects:
// a Store interface with snapshot/restore semantics, concrete stores for
// the paper's three application shapes (keyed hashtable, Bloom filter,
// weighted graph), a binary snapshot codec, and the timestamp+sequence
// version control the prototype adds to avoid inconsistency during save
// and recovery (paper §4, modification 3).
package state

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
)

// Store is the state handle a stateful operator hands to SR3. Snapshots
// must be deterministic for identical logical state so that recovered
// state can be byte-compared in tests.
type Store interface {
	// Snapshot serializes the full state into a fresh buffer that is the
	// caller's: the store keeps no reference to it and never writes to it
	// again, so it can be handed on (and sharded in place) without a copy.
	Snapshot() ([]byte, error)
	// Restore replaces the state from a snapshot.
	Restore(data []byte) error
	// SizeBytes approximates the serialized state size without snapshotting.
	SizeBytes() int
}

// Codec errors.
var (
	ErrCorrupt  = errors.New("state: snapshot corrupt")
	ErrTooShort = errors.New("state: snapshot truncated")
)

// Version orders snapshots of the same state. Timestamp is coarse wall
// time supplied by the caller; Seq breaks ties and detects replays.
type Version struct {
	Timestamp int64
	Seq       uint64
}

// Newer reports whether v supersedes o.
func (v Version) Newer(o Version) bool {
	if v.Timestamp != o.Timestamp {
		return v.Timestamp > o.Timestamp
	}
	return v.Seq > o.Seq
}

func (v Version) String() string { return fmt.Sprintf("v%d.%d", v.Timestamp, v.Seq) }

// MapStore is the in-memory hashtable state used by most of the paper's
// applications (Table 1 row "SR3": hashtable, in-memory). Safe for
// concurrent use.
type MapStore struct {
	mu   sync.RWMutex
	data map[string][]byte
	size int
}

var _ Store = (*MapStore)(nil)

// NewMapStore returns an empty hashtable store.
func NewMapStore() *MapStore {
	return &MapStore{data: make(map[string][]byte)}
}

// Put inserts or replaces a key.
func (m *MapStore) Put(key string, value []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old, ok := m.data[key]
	if ok && len(old) == len(value) {
		// Same-length overwrite: the stored slice is never handed out
		// (Get, Snapshot and Restore all copy), so it is rewritten in
		// place — no allocation, no map assignment.
		copy(old, value)
		return
	}
	if ok {
		m.size -= len(key) + len(old)
	}
	m.data[key] = append([]byte(nil), value...)
	m.size += len(key) + len(value)
}

// Get returns the value for key.
func (m *MapStore) Get(key string) ([]byte, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.data[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Delete removes a key.
func (m *MapStore) Delete(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.data[key]; ok {
		m.size -= len(key) + len(old)
		delete(m.data, key)
	}
}

// Len returns the number of keys.
func (m *MapStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data)
}

// Keys returns all keys, sorted.
func (m *MapStore) Keys() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.data))
	for k := range m.data {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SizeBytes approximates the serialized size.
func (m *MapStore) SizeBytes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.size + 8*len(m.data) + 8
}

// Snapshot serializes entries sorted by key: deterministic.
func (m *MapStore) Snapshot() ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	keys := make([]string, 0, len(m.data))
	for k := range m.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := make([]byte, 0, m.size+16*len(keys)+8)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = appendBytes(buf, []byte(k))
		buf = appendBytes(buf, m.data[k])
	}
	return buf, nil
}

// Restore replaces contents from a snapshot.
func (m *MapStore) Restore(data []byte) error {
	n, rest, err := readUint64(data)
	if err != nil {
		return err
	}
	fresh := make(map[string][]byte, n)
	size := 0
	for i := uint64(0); i < n; i++ {
		var k, v []byte
		k, rest, err = readBytes(rest)
		if err != nil {
			return err
		}
		v, rest, err = readBytes(rest)
		if err != nil {
			return err
		}
		fresh[string(k)] = v
		size += len(k) + len(v)
	}
	if len(rest) != 0 {
		return fmt.Errorf("map restore: %d trailing bytes: %w", len(rest), ErrCorrupt)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = fresh
	m.size = size
	return nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func readUint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrTooShort
	}
	return binary.BigEndian.Uint64(b[:8]), b[8:], nil
}

func readBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, ErrTooShort
	}
	n := binary.BigEndian.Uint32(b[:4])
	b = b[4:]
	if uint32(len(b)) < n {
		return nil, nil, ErrTooShort
	}
	return append([]byte(nil), b[:n]...), b[n:], nil
}

// Envelope wraps a snapshot with version metadata and an integrity
// checksum; this is the unit SR3 splits into shards.
type Envelope struct {
	Version Version
	Data    []byte
}

const envelopeHeader = 8 + 8 + 4 + 4 // ts + seq + crc + len

// EncodeEnvelope serializes an envelope.
func EncodeEnvelope(e Envelope) []byte {
	buf := make([]byte, 0, envelopeHeader+len(e.Data))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.Version.Timestamp))
	buf = binary.BigEndian.AppendUint64(buf, e.Version.Seq)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(e.Data))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Data)))
	return append(buf, e.Data...)
}

// DecodeEnvelope parses and integrity-checks an envelope.
func DecodeEnvelope(b []byte) (Envelope, error) {
	if len(b) < envelopeHeader {
		return Envelope{}, ErrTooShort
	}
	ts := int64(binary.BigEndian.Uint64(b[0:8]))
	seq := binary.BigEndian.Uint64(b[8:16])
	sum := binary.BigEndian.Uint32(b[16:20])
	n := binary.BigEndian.Uint32(b[20:24])
	body := b[24:]
	if uint32(len(body)) != n {
		return Envelope{}, fmt.Errorf("envelope length %d != %d: %w", len(body), n, ErrCorrupt)
	}
	if crc32.ChecksumIEEE(body) != sum {
		return Envelope{}, fmt.Errorf("envelope checksum mismatch: %w", ErrCorrupt)
	}
	return Envelope{
		Version: Version{Timestamp: ts, Seq: seq},
		Data:    append([]byte(nil), body...),
	}, nil
}
