package state

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMapStoreBasicOps(t *testing.T) {
	m := NewMapStore()
	m.Put("a", []byte("1"))
	m.Put("b", []byte("2"))
	m.Put("a", []byte("3")) // overwrite
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
	v, ok := m.Get("a")
	if !ok || string(v) != "3" {
		t.Fatalf("get a = %q %v", v, ok)
	}
	m.Delete("a")
	if _, ok := m.Get("a"); ok {
		t.Fatal("a should be gone")
	}
	m.Delete("ghost") // no-op
	if got := m.Keys(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("keys = %v", got)
	}
}

func TestMapStoreSnapshotRoundTrip(t *testing.T) {
	m := NewMapStore()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		val := make([]byte, rng.Intn(100))
		rng.Read(val)
		m.Put(fmt.Sprintf("key-%d", i), val)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewMapStore()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	snap2, _ := restored.Snapshot()
	if !bytes.Equal(snap, snap2) {
		t.Fatal("snapshot not stable across restore")
	}
	if restored.Len() != m.Len() {
		t.Fatalf("len %d != %d", restored.Len(), m.Len())
	}
}

func TestMapStoreSnapshotDeterministic(t *testing.T) {
	build := func(order []int) *MapStore {
		m := NewMapStore()
		for _, i := range order {
			m.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
		}
		return m
	}
	s1, _ := build([]int{1, 2, 3, 4}).Snapshot()
	s2, _ := build([]int{4, 3, 2, 1}).Snapshot()
	if !bytes.Equal(s1, s2) {
		t.Fatal("snapshot depends on insertion order")
	}
}

func TestMapStoreRestoreRejectsGarbage(t *testing.T) {
	m := NewMapStore()
	if err := m.Restore([]byte{1, 2, 3}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("got %v", err)
	}
	good, _ := (&MapStore{data: map[string][]byte{"k": []byte("v")}}).Snapshot()
	if err := m.Restore(append(good, 0xff)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: got %v", err)
	}
}

func TestMapStoreSizeTracksContent(t *testing.T) {
	m := NewMapStore()
	before := m.SizeBytes()
	m.Put("key", make([]byte, 1000))
	if m.SizeBytes() < before+1000 {
		t.Fatalf("size %d does not reflect 1000-byte value", m.SizeBytes())
	}
	m.Delete("key")
	if m.SizeBytes() != before {
		t.Fatalf("size %d after delete, want %d", m.SizeBytes(), before)
	}
}

// TestMapStorePutDoesNotAlias: Put rewrites a same-length value in
// place, so nothing outside the store may share the stored slice — not
// the caller's argument, not an earlier Get result, not a snapshot or
// the snapshot a restore was fed — and the bytes a snapshot carries are
// the ones a store built by fresh inserts carries.
func TestMapStorePutDoesNotAlias(t *testing.T) {
	m := NewMapStore()
	arg := []byte("aaaa")
	m.Put("k", arg)
	arg[0] = 'X' // the caller's slice is the caller's
	if v, _ := m.Get("k"); string(v) != "aaaa" {
		t.Fatalf("stored value follows the caller's slice: %q", v)
	}
	got, _ := m.Get("k")
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	held := append([]byte(nil), snap...)
	m.Put("k", []byte("bbbb")) // same length: in place
	if string(got) != "aaaa" {
		t.Fatalf("an earlier Get result changed under a later Put: %q", got)
	}
	if !bytes.Equal(snap, held) {
		t.Fatal("an earlier snapshot changed under a later Put")
	}
	if v, _ := m.Get("k"); string(v) != "bbbb" {
		t.Fatalf("overwrite lost: %q", v)
	}
	got[0] = 'Y' // and a Get result is the reader's
	if v, _ := m.Get("k"); string(v) != "bbbb" {
		t.Fatalf("stored value follows a Get result: %q", v)
	}

	// A restored store overwrites in place too; its source snapshot stays.
	r := NewMapStore()
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	r.Put("k", []byte("cccc"))
	if !bytes.Equal(snap, held) {
		t.Fatal("Put on a restored store wrote into the snapshot it was restored from")
	}

	// Same bytes as a store that never overwrote anything.
	m.Put("k", []byte("cc"))   // shorter
	m.Put("k", []byte("dddd")) // longer
	m.Put("k", []byte("eeee")) // same length again
	fresh := NewMapStore()
	fresh.Put("k", []byte("eeee"))
	a, _ := m.Snapshot()
	b, _ := fresh.Snapshot()
	if !bytes.Equal(a, b) || m.SizeBytes() != fresh.SizeBytes() {
		t.Fatalf("snapshot or size after overwrites differs from a fresh insert (%d vs %d bytes)", m.SizeBytes(), fresh.SizeBytes())
	}
}

// TestMapStorePutOverwriteZeroAlloc: a same-length overwrite — what a
// keyed counter does on every tuple — allocates nothing.
func TestMapStorePutOverwriteZeroAlloc(t *testing.T) {
	m := NewMapStore()
	val := make([]byte, 4096)
	m.Put("key", val)
	if a := testing.AllocsPerRun(100, func() { m.Put("key", val) }); a != 0 {
		t.Fatalf("same-length overwrite = %v allocs/op, want 0", a)
	}
}

func TestMapStorePropertyRoundTrip(t *testing.T) {
	f := func(pairs map[string][]byte) bool {
		m := NewMapStore()
		for k, v := range pairs {
			m.Put(k, v)
		}
		snap, err := m.Snapshot()
		if err != nil {
			return false
		}
		r := NewMapStore()
		if err := r.Restore(snap); err != nil {
			return false
		}
		if r.Len() != len(pairs) {
			return false
		}
		for k, v := range pairs {
			got, ok := r.Get(k)
			if !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionOrdering(t *testing.T) {
	tests := []struct {
		a, b  Version
		newer bool
	}{
		{Version{2, 0}, Version{1, 9}, true},
		{Version{1, 5}, Version{1, 4}, true},
		{Version{1, 4}, Version{1, 4}, false},
		{Version{1, 4}, Version{2, 0}, false},
	}
	for _, tt := range tests {
		if got := tt.a.Newer(tt.b); got != tt.newer {
			t.Errorf("%v newer than %v = %v, want %v", tt.a, tt.b, got, tt.newer)
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	e := Envelope{Version: Version{Timestamp: 42, Seq: 7}, Data: []byte("payload")}
	enc := EncodeEnvelope(e)
	dec, err := DecodeEnvelope(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Version != e.Version || !bytes.Equal(dec.Data, e.Data) {
		t.Fatalf("round trip mismatch: %+v", dec)
	}
}

func TestEnvelopeDetectsCorruption(t *testing.T) {
	enc := EncodeEnvelope(Envelope{Version: Version{1, 1}, Data: []byte("payload")})
	enc[len(enc)-1] ^= 0xff
	if _, err := DecodeEnvelope(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if _, err := DecodeEnvelope(enc[:10]); !errors.Is(err, ErrTooShort) {
		t.Fatalf("got %v, want ErrTooShort", err)
	}
}

func TestBloomFilterBasics(t *testing.T) {
	f := NewBloomFilter(1000, 0.01)
	for i := 0; i < 500; i++ {
		f.Add(fmt.Sprintf("ip-%d", i))
	}
	for i := 0; i < 500; i++ {
		if !f.Test(fmt.Sprintf("ip-%d", i)) {
			t.Fatalf("false negative on ip-%d", i)
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if f.Test(fmt.Sprintf("unseen-%d", i)) {
			fp++
		}
	}
	if fp > 50 { // 5% on a 1% filter at half load: generous bound
		t.Fatalf("false positive rate too high: %d/1000", fp)
	}
}

func TestBloomFilterSnapshotRoundTrip(t *testing.T) {
	f := NewBloomFilter(100, 0.05)
	for i := 0; i < 80; i++ {
		f.Add(fmt.Sprintf("k%d", i))
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g := NewBloomFilter(1, 0.5)
	if err := g.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if g.Adds() != f.Adds() {
		t.Fatalf("adds %d != %d", g.Adds(), f.Adds())
	}
	for i := 0; i < 80; i++ {
		if !g.Test(fmt.Sprintf("k%d", i)) {
			t.Fatalf("restored filter lost k%d", i)
		}
	}
}

func TestBloomFilterRestoreRejectsGarbage(t *testing.T) {
	f := NewBloomFilter(10, 0.1)
	if err := f.Restore([]byte{1, 2}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("got %v", err)
	}
}

func TestBloomFilterDegenerateParams(t *testing.T) {
	f := NewBloomFilter(0, 2.0) // falls back to sane defaults
	f.Add("x")
	if !f.Test("x") {
		t.Fatal("degenerate filter lost element")
	}
}

func TestGraphStoreEdgesAndNeighbors(t *testing.T) {
	g := NewGraphStore()
	g.AddEdge("milk", "bread")
	g.AddEdge("bread", "milk") // same edge, normalized
	g.AddEdge("milk", "eggs")
	g.AddEdge("milk", "milk") // self loop ignored
	if w := g.Weight("milk", "bread"); w != 2 {
		t.Fatalf("weight = %d, want 2", w)
	}
	if w := g.Weight("bread", "milk"); w != 2 {
		t.Fatalf("reverse weight = %d", w)
	}
	nb := g.Neighbors("milk")
	if len(nb) != 2 || nb[0] != "bread" || nb[1] != "eggs" {
		t.Fatalf("neighbors = %v", nb)
	}
	if g.EdgeCount() != 2 {
		t.Fatalf("edges = %d", g.EdgeCount())
	}
}

func TestGraphStoreSnapshotRoundTrip(t *testing.T) {
	g := NewGraphStore()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		g.AddEdge(fmt.Sprintf("p%d", rng.Intn(50)), fmt.Sprintf("p%d", rng.Intn(50)))
	}
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	h := NewGraphStore()
	if err := h.Restore(snap); err != nil {
		t.Fatal(err)
	}
	snap2, _ := h.Snapshot()
	if !bytes.Equal(snap, snap2) {
		t.Fatal("graph snapshot unstable")
	}
	if h.EdgeCount() != g.EdgeCount() {
		t.Fatalf("edge counts differ: %d vs %d", h.EdgeCount(), g.EdgeCount())
	}
}

func TestGraphRestoreRejectsGarbage(t *testing.T) {
	g := NewGraphStore()
	if err := g.Restore([]byte{0}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("got %v", err)
	}
}
