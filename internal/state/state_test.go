package state

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
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

// viewStore fills a store with values on both sides of viewInline — empty,
// small, exactly inline, one byte past it, large — so a view mixes scratch
// runs and lent values.
func viewStore(keys int, seed int64) *MapStore {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{0, 1, 8, viewInline - 1, viewInline, viewInline + 1, 4096}
	m := NewMapStore()
	for i := 0; i < keys; i++ {
		v := make([]byte, sizes[rng.Intn(len(sizes))])
		rng.Read(v)
		m.Put(fmt.Sprintf("key-%04d", i), v)
	}
	return m
}

// TestMapStoreViewJoinsToSnapshot: a view is the snapshot by reference —
// its segments join to exactly Snapshot's bytes — on the first view and
// on later ones that reuse its buffers after the store grew, shrank and
// changed in place; and a large value is lent, not copied.
func TestMapStoreViewJoinsToSnapshot(t *testing.T) {
	m := viewStore(300, 1)
	check := func(when string) {
		t.Helper()
		want, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.View()
		if err != nil {
			t.Fatal(err)
		}
		got := v.Join()
		lent := false
		for _, seg := range v.Segs {
			if len(seg) > viewInline {
				for _, val := range m.data {
					lent = lent || len(val) > 0 && &val[0] == &seg[0]
				}
			}
		}
		v.Release()
		if !bytes.Equal(got, want) || v.Len != len(want) {
			t.Fatalf("%s: view joins to %d bytes (Len %d), snapshot is %d bytes", when, len(got), v.Len, len(want))
		}
		if !lent {
			t.Fatalf("%s: no segment is a stored value — the view copied them", when)
		}
	}
	check("first view")
	for i := 0; i < 100; i++ {
		m.Delete(fmt.Sprintf("key-%04d", i))
	}
	m.Put("key-0150", make([]byte, 4096)) // in place or regrown
	for i := 300; i < 600; i++ {
		m.Put(fmt.Sprintf("key-%04d", i), bytes.Repeat([]byte{byte(i)}, i))
	}
	check("after the store changed")
	empty := NewMapStore()
	v, _ := empty.View()
	want, _ := empty.Snapshot()
	if !bytes.Equal(v.Join(), want) {
		t.Fatal("an empty store's view is not its snapshot")
	}
	v.Release()
}

// TestMapStoreViewLeaseHoldsWriters: while a view is held the store is a
// consistent cut — a Put from another goroutine waits for Release, a Get
// does not — and once released the write lands.
func TestMapStoreViewLeaseHoldsWriters(t *testing.T) {
	m := viewStore(50, 2)
	m.Put("big", bytes.Repeat([]byte{1}, 4096))
	before, _ := m.Snapshot()
	v, err := m.View()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get("big"); !ok {
		t.Fatal("a reader was refused under a view")
	}
	put := make(chan struct{})
	go func() {
		m.Put("big", bytes.Repeat([]byte{2}, 4096)) // same length: in place
		close(put)
	}()
	select {
	case <-put:
		t.Fatal("a Put went through while a view was held")
	case <-time.After(50 * time.Millisecond):
	}
	if !bytes.Equal(v.Join(), before) {
		t.Fatal("the view changed while it was held")
	}
	v.Release()
	select {
	case <-put:
	case <-time.After(5 * time.Second):
		t.Fatal("the Put never went through after Release")
	}
	if got, _ := m.Get("big"); got[0] != 2 {
		t.Fatal("the Put held by the view was lost")
	}
}

// TestMapStoreViewSegmentsFollowLargeValues: small values ride in the
// scratch, so a store of a million 8-byte values is a view of a handful of
// segments — not two per key, which a vectored write would have to cut
// into many more syscalls.
func TestMapStoreViewSegmentsFollowLargeValues(t *testing.T) {
	if raceEnabled {
		t.Skip("a million keys under the race detector's shadow memory")
	}
	m := NewMapStore()
	val := make([]byte, 8)
	for i := 0; i < 1_000_000; i++ {
		m.Put(fmt.Sprintf("%07d", i), val)
	}
	v, err := m.View()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	if len(v.Segs) > 4 {
		t.Fatalf("a view of 1M small values has %d segments", len(v.Segs))
	}
	if want := 8 + 1_000_000*(4+7+4+8); v.Len != want {
		t.Fatalf("view Len %d, want %d", v.Len, want)
	}
}

// cut splits b into segments at n random boundaries — some inside a
// length prefix, some empty — as a recovery's shard bodies cut a state.
func cut(b []byte, n int, rng *rand.Rand) [][]byte {
	at := []int{0, len(b)}
	for i := 0; i < n; i++ {
		at = append(at, rng.Intn(len(b)+1))
	}
	sort.Ints(at)
	segs := make([][]byte, 0, len(at)-1)
	for i := 1; i < len(at); i++ {
		segs = append(segs, b[at[i-1]:at[i]])
	}
	return segs
}

// TestMapStoreRestoreViewAcrossSegments: a store restores from its
// snapshot cut anywhere — records, length prefixes and values split over
// segments — to exactly the state Restore gives, keeps none of the view's
// bytes, and refuses a view that is cut short or runs on.
func TestMapStoreRestoreViewAcrossSegments(t *testing.T) {
	want, err := viewStore(300, 3).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 64, 2000} {
		src := append([]byte(nil), want...)
		m := NewMapStore()
		if err := m.RestoreView(NewView(cut(src, n, rng), nil)); err != nil {
			t.Fatalf("%d cuts: %v", n, err)
		}
		clear(src) // the view's bytes go once it is released
		if got, _ := m.Snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("%d cuts: the restored store is not the snapshot's, or still reads the view", n)
		}
	}
	short := cut(want[:len(want)-1], 9, rng)
	if err := NewMapStore().RestoreView(NewView(short, nil)); !errors.Is(err, ErrTooShort) {
		t.Fatalf("a view one byte short: got %v, want ErrTooShort", err)
	}
	long := append(cut(want, 9, rng), []byte{0})
	if err := NewMapStore().RestoreView(NewView(long, nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a view one byte long: got %v, want ErrCorrupt", err)
	}
}

// TestStoresWithoutANativeReaderRestoreFromAView: the Bloom filter and the
// graph join a segmented view and restore as from its bytes.
func TestStoresWithoutANativeReaderRestoreFromAView(t *testing.T) {
	f := NewBloomFilter(100, 0.01)
	g := NewGraphStore()
	for i := 0; i < 50; i++ {
		f.Add(fmt.Sprintf("k%d", i))
		g.AddEdge(fmt.Sprintf("a%d", i%7), fmt.Sprintf("b%d", i))
	}
	rng := rand.New(rand.NewSource(4))
	for _, pair := range []struct{ from, to Store }{{f, NewBloomFilter(1, 0.5)}, {g, NewGraphStore()}} {
		want, _ := pair.from.Snapshot()
		if err := pair.to.RestoreView(NewView(cut(want, 5, rng), nil)); err != nil {
			t.Fatalf("%T: %v", pair.to, err)
		}
		if got, _ := pair.to.Snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("%T restored from a view is not the snapshot's state", pair.to)
		}
	}
}
