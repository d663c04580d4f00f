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
	"slices"
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
	// View lends the serialized state by reference (see View): the same
	// bytes Snapshot would return, frozen until the view is released.
	View() (View, error)
	// Restore replaces the state from a snapshot: RestoreView of one
	// segment.
	Restore(data []byte) error
	// RestoreView replaces the state from a view — a recovery's shard
	// bodies as they lie, in order — and keeps nothing of it: the caller
	// releases the view once it returns.
	RestoreView(v View) error
	// SizeBytes approximates the serialized state size without snapshotting.
	SizeBytes() int
}

// View is a store's serialized form lent by reference: the concatenation
// of Segs is exactly what Snapshot would return, but the segments may be
// the store's own memory. The store does not change while the view is
// held — its writers wait — so the view is a consistent cut, and it is
// valid only until Release. A borrower that keeps the bytes copies them
// (Join).
type View struct {
	Segs [][]byte
	Len  int // the summed length of Segs
	// release ends the store's read lease; nil for a view that lends
	// nothing of the store's.
	release func()
}

// ViewOf is the one-segment view of b, which stays its owner's: what a
// store without a native view lends (its Snapshot), and the form a plain
// byte slice takes on its way into a backend.
func ViewOf(b []byte) View { return View{Segs: [][]byte{b}, Len: len(b)} }

// NewView lends segs, in order, as a serialized state: what a recovery
// hands a store (RestoreView) — the shard bodies it received, as they lie.
// release runs at the view's Release, when nothing reads the segments any
// more.
func NewView(segs [][]byte, release func()) View {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	return View{Segs: segs, Len: n, release: release}
}

// Release ends the lease: the store's writers proceed and the segments
// may change. Call it exactly once, when the borrower is done.
func (v View) Release() {
	if v.release != nil {
		v.release()
	}
}

// Join copies the view into one fresh buffer that is the caller's.
func (v View) Join() []byte {
	out := make([]byte, 0, v.Len)
	for _, s := range v.Segs {
		out = append(out, s...)
	}
	return out
}

// Bytes is the view as one slice, borrowed like the view itself: its only
// segment when it has one, a joined copy otherwise. For a borrower that
// copies what it keeps anyway.
func (v View) Bytes() []byte {
	if len(v.Segs) == 1 {
		return v.Segs[0]
	}
	return v.Join()
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
//
// Its values live outside the Go heap, in a slab of size-classed slots
// (slab.go): the collector neither scans nor doubles them, and the store
// is one resident copy of its bytes. The map's value slices point into the
// slab, so no value slice leaves the store except under a lease: Get and
// Snapshot copy, View lends them until Release and writers wait for it,
// and a Put that changes a value's length or a Delete frees its slot. A
// caller that kept a slice past that would read reused or unmapped memory
// (poison under the race detector). The slab is unmapped when the store is
// collected, or replaced whole by RestoreView.
type MapStore struct {
	mu   sync.RWMutex
	data map[string][]byte // values are slots of vals
	vals *slab
	size int

	// viewMu is held for the life of a view, and guards the buffers View
	// reuses from one save to the next: the sorted keys, the scratch that
	// holds every length prefix, key and inline value, and the segments.
	viewMu  sync.Mutex
	keys    []string
	scratch []byte
	segs    [][]byte
}

// viewInline is the largest value a view copies into its scratch; larger
// ones are lent as the store's own slices. A view therefore has about two
// segments per large value and a handful otherwise, however many small
// keys the store has (a writev takes a bounded number of them), and the
// scratch stays a small fraction of a store whose bytes are in its values.
const viewInline = 256

var _ Store = (*MapStore)(nil)

// NewMapStore returns an empty hashtable store.
func NewMapStore() *MapStore {
	return &MapStore{data: make(map[string][]byte), vals: newSlab()}
}

// Put inserts or replaces a key.
func (m *MapStore) Put(key string, value []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old, ok := m.data[key]
	if ok && len(old) == len(value) {
		// Same-length overwrite: the stored slice is handed out only by a
		// View, under a read lease this write waits for (Get, Snapshot and
		// Restore copy), so it is rewritten in place — no allocation, no
		// map assignment.
		copy(old, value)
		return
	}
	v := m.vals.alloc(len(value))
	copy(v, value)
	if ok {
		m.size -= len(key) + len(old)
		m.vals.free(old)
	}
	m.data[key] = v
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
		m.vals.free(old)
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

// View lends the snapshot by reference under a read lease: writers (Put,
// Delete, Restore) wait until Release, readers do not. Length prefixes,
// keys and values up to viewInline bytes are laid out in one scratch
// buffer the store reuses save after save; a larger value is its own
// segment, the store's slice itself. A steady save cycle therefore
// allocates nothing here. The goroutine holding the view must not write
// to the store before releasing it.
func (m *MapStore) View() (View, error) {
	m.viewMu.Lock()
	m.mu.RLock()
	if cap(m.keys) < len(m.data) {
		m.keys = make([]string, 0, len(m.data)+len(m.data)/8)
	}
	keys := m.keys[:0]
	for k := range m.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	need, lentN := 8, 0
	for _, k := range keys {
		need += 8 + len(k)
		if v := m.data[k]; len(v) <= viewInline {
			need += len(v)
		} else {
			lentN++
		}
	}
	if cap(m.scratch) < need {
		m.scratch = make([]byte, 0, need+need/8)
	}
	if cap(m.segs) < 2*lentN+1 {
		m.segs = make([][]byte, 0, 2*lentN+1+lentN/8)
	}
	// Sized up front, so the appends below never move buf and every
	// segment cut from it stays valid.
	buf, segs, from, lent := m.scratch[:0], m.segs[:0], 0, 0
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(keys)))
	for _, k := range keys {
		v := m.data[k]
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		if len(v) <= viewInline {
			buf = append(buf, v...)
			continue
		}
		segs = append(segs, buf[from:len(buf):len(buf)], v[:len(v):len(v)])
		from, lent = len(buf), lent+len(v)
	}
	if from < len(buf) {
		segs = append(segs, buf[from:len(buf):len(buf)])
	}
	m.keys, m.segs = keys, segs
	return View{Segs: segs, Len: len(buf) + lent, release: m.releaseView}, nil
}

// releaseView ends a view's lease. The reused buffers drop their
// references to keys and values, so a deleted value is not kept alive by
// the last save.
func (m *MapStore) releaseView() {
	clear(m.keys)
	clear(m.segs)
	m.mu.RUnlock()
	m.viewMu.Unlock()
}

// Restore replaces contents from a snapshot.
func (m *MapStore) Restore(data []byte) error { return m.RestoreView(ViewOf(data)) }

// RestoreView replaces contents from a view, parsing records across its
// segment boundaries: a key or value may start in one shard body and end in
// the next. Each value is copied once, into a fresh slab that replaces the
// store's; the old slab is unmapped whole.
func (m *MapStore) RestoreView(v View) error {
	vals := newSlab()
	fresh, size, err := readMap(v, vals)
	if err != nil {
		vals.release()
		return err
	}
	m.mu.Lock()
	old := m.vals
	m.data, m.vals, m.size = fresh, vals, size
	m.mu.Unlock()
	old.release()
	return nil
}

// readMap parses a MapStore's serialized form into a map whose values are
// slots of vals, and returns it with its size.
func readMap(v View, vals *slab) (map[string][]byte, int, error) {
	r := newViewReader(v)
	var hdr [8]byte
	if !r.read(hdr[:]) {
		return nil, 0, ErrTooShort
	}
	n := binary.BigEndian.Uint64(hdr[:])
	// Every record takes at least its two length prefixes, so the count
	// cannot size the map past what the view holds.
	fresh := make(map[string][]byte, min(n, uint64(r.left/8)))
	size := 0
	var key []byte
	for i := uint64(0); i < n; i++ {
		kn, ok := r.length()
		if !ok {
			return nil, 0, ErrTooShort
		}
		key = slices.Grow(key[:0], kn)[:kn]
		if !r.read(key) {
			return nil, 0, ErrTooShort
		}
		vn, ok := r.length()
		if !ok {
			return nil, 0, ErrTooShort
		}
		val := vals.alloc(vn)
		if !r.read(val) {
			return nil, 0, ErrTooShort
		}
		fresh[string(key)] = val
		size += kn + vn
	}
	if r.left != 0 {
		return nil, 0, fmt.Errorf("map restore: %d trailing bytes: %w", r.left, ErrCorrupt)
	}
	return fresh, size, nil
}

// viewReader reads a view's bytes in order across its segments.
type viewReader struct {
	cur  []byte   // the unread part of the current segment
	rest [][]byte // the segments after it
	left int      // bytes not read yet
}

func newViewReader(v View) *viewReader {
	r := &viewReader{rest: v.Segs}
	for _, s := range v.Segs {
		r.left += len(s)
	}
	return r
}

// read fills p from the view; false, with nothing promised about p, when
// fewer than len(p) bytes are left.
func (r *viewReader) read(p []byte) bool {
	if len(p) > r.left {
		return false
	}
	r.left -= len(p)
	for len(p) > 0 {
		for len(r.cur) == 0 {
			r.cur, r.rest = r.rest[0], r.rest[1:]
		}
		k := copy(p, r.cur)
		p, r.cur = p[k:], r.cur[k:]
	}
	return true
}

// length reads a record's 4-byte length prefix, which must fit in what is
// left of the view.
func (r *viewReader) length() (int, bool) {
	var b [4]byte
	if !r.read(b[:]) {
		return 0, false
	}
	n := int(binary.BigEndian.Uint32(b[:]))
	return n, n <= r.left
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
