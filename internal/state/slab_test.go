package state

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"sr3/internal/offheap"
)

// TestSlotSizeWastesAtMostAnEighth: every length lands in a slot that
// holds it and wastes at most 12.5 % of the slot; the benchmark's 4 KiB
// values fit exactly.
func TestSlotSizeWastesAtMostAnEighth(t *testing.T) {
	for n := 1; n <= 1<<20; n += 1 + n/64 {
		s := slotSize(n)
		if s < n || 8*(s-n) > s {
			t.Fatalf("slotSize(%d) = %d", n, s)
		}
	}
	for _, n := range []int{8, 16, 4096, 16 << 10} {
		if s := slotSize(n); s != n {
			t.Fatalf("slotSize(%d) = %d, want exact", n, s)
		}
	}
}

// checkSlab verifies the slab's books against the store's values: every
// value lies in one chunk's slot of its class (or is a chunk of its own),
// no two values share a slot, each chunk's count of slots in use is the
// values it holds, a chunk is on its class's room list exactly when it has
// a free slot, and no chunk is empty.
func checkSlab(t *testing.T, m *MapStore) {
	t.Helper()
	s := m.vals
	held := map[*chunk]int{}
	slots := map[uintptr]string{}
	for k, v := range m.data {
		if cap(v) == 0 {
			continue
		}
		var c *chunk
		for _, cc := range s.chunks {
			if addr(v) >= cc.base && addr(v) < cc.base+uintptr(len(cc.mem)) {
				c = cc
			}
		}
		if c == nil {
			t.Fatalf("value of %q (%d bytes) is in no chunk", k, len(v))
		}
		held[c]++
		if c.class == nil {
			if len(v) != len(c.mem) || len(v) <= maxChunk {
				t.Fatalf("value of %q: %d bytes in a %d-byte chunk of its own", k, len(v), len(c.mem))
			}
			continue
		}
		off := int(addr(v) - c.base)
		if c.class.slot != slotSize(len(v)) || off%c.class.slot != 0 {
			t.Fatalf("value of %q (%d bytes) at offset %d of a chunk of %d-byte slots", k, len(v), off, c.class.slot)
		}
		if other, dup := slots[addr(v)]; dup {
			t.Fatalf("%q and %q share a slot", k, other)
		}
		slots[addr(v)] = k
	}
	if !slices.IsSortedFunc(s.chunks, func(a, b *chunk) int { return cmp.Compare(a.base, b.base) }) {
		t.Fatal("chunks are not filed by address")
	}
	for _, c := range s.chunks {
		if c.used == 0 || c.used != held[c] {
			t.Fatalf("a chunk counts %d slots in use and holds %d values", c.used, held[c])
		}
		if c.class == nil {
			continue
		}
		n := len(c.mem) / c.class.slot
		if c.used != c.next-len(c.free) || c.next > n {
			t.Fatalf("chunk of %d slots: %d used, %d handed out, %d free", n, c.used, c.next, len(c.free))
		}
		if inRoom := slices.Contains(c.class.room, c); inRoom != (c.used < n) {
			t.Fatalf("chunk with %d of %d slots used is on the room list: %v", c.used, n, inRoom)
		}
	}
	for slot, cl := range s.classes {
		count := 0
		for _, c := range s.chunks {
			if c.class == cl {
				count++
			}
		}
		if cl.count != count || cl.slot != slot {
			t.Fatalf("class of %d-byte slots counts %d chunks, has %d", slot, cl.count, count)
		}
	}
}

// TestMapStoreSlabMatchesAReferenceMap is the slab's property test: a
// seeded run of Puts (same length, new length, new key), Deletes, views and
// restores against a plain map. After every step the store's snapshot is the
// reference's, byte for byte, and the slab's books hold (checkSlab). Values
// span exact small slots, rounded classes and values larger than a chunk.
// Under -race the allocator is the heap's and poisons what it frees, so a
// value read from a freed slot shows as a mismatch.
func TestMapStoreSlabMatchesAReferenceMap(t *testing.T) {
	sizes := []int{0, 1, 8, 15, 16, 17, 100, viewInline, viewInline + 1, 1000, 4096, 4097, 40 << 10}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			size := func() int {
				if rng.Intn(60) == 0 {
					return maxChunk + 1 + rng.Intn(4096) // a chunk of its own
				}
				return sizes[rng.Intn(len(sizes))] + rng.Intn(3)
			}
			value := func(n int) []byte {
				v := make([]byte, n)
				rng.Read(v)
				return v
			}
			m, ref := NewMapStore(), map[string][]byte{}
			key := func() string { return fmt.Sprintf("k%02d", rng.Intn(48)) }
			held := func() (string, bool) { // a key the store holds
				keys := make([]string, 0, len(ref))
				for k := range ref {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				if len(keys) == 0 {
					return "", false
				}
				return keys[rng.Intn(len(keys))], true
			}
			for step := 0; step < 600; step++ {
				var op string
				switch r := rng.Intn(100); {
				case r < 30: // new key, or any key
					op = "put"
					k, v := key(), value(size())
					m.Put(k, v)
					ref[k] = v
				case r < 55:
					op = "put same length"
					if k, ok := held(); ok {
						v := value(len(ref[k]))
						m.Put(k, v)
						ref[k] = v
					}
				case r < 70:
					op = "put new length"
					if k, ok := held(); ok {
						v := value(size())
						m.Put(k, v)
						ref[k] = v
					}
				case r < 88:
					op = "delete"
					k := key()
					m.Delete(k)
					delete(ref, k)
				case r < 96:
					op = "view"
					v, err := m.View()
					if err != nil {
						t.Fatal(err)
					}
					want := referenceSnapshot(ref)
					if got := v.Join(); !bytes.Equal(got, want) {
						t.Fatalf("step %d: a view is not the reference's snapshot", step)
					}
					v.Release()
				default:
					op = "restore"
					snap := referenceSnapshot(ref)
					if err := m.RestoreView(NewView(cut(snap, 5, rng), nil)); err != nil {
						t.Fatal(err)
					}
				}
				got, err := m.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, referenceSnapshot(ref)) {
					t.Fatalf("step %d (%s): the store's snapshot is not the reference's", step, op)
				}
				checkSlab(t, m)
			}
		})
	}
}

// referenceSnapshot is what a MapStore holding ref snapshots to.
func referenceSnapshot(ref map[string][]byte) []byte {
	m := &MapStore{data: ref}
	b, _ := m.Snapshot()
	return b
}

// fillSlab puts S bytes into a fresh store as 4 KiB values, the shape of
// the benchmark's state.
func fillSlab(S int) *MapStore {
	m := NewMapStore()
	val := make([]byte, 4096)
	for i := 0; i < S/len(val); i++ {
		val[0], val[1] = byte(i), byte(i>>8)
		m.Put(fmt.Sprintf("key-%05d", i), val)
	}
	return m
}

// TestMapStoreValuesLiveOffTheHeap: a 16 MiB store's values are mapped
// outside the Go heap — the live heap grows by the map and its keys only,
// at most S/16 — and the stores counter reads at least S.
func TestMapStoreValuesLiveOffTheHeap(t *testing.T) {
	if !offheap.Mapped {
		t.Skip("this build's allocator is the Go heap")
	}
	const S = 16 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	live := offheap.Stores.Live()
	m := fillSlab(S)
	runtime.GC()
	runtime.ReadMemStats(&after)
	mapped := offheap.Stores.Live() - live
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d bytes of values: heap grew %d bytes, %d bytes mapped", S, heap, mapped)
	if heap > S/16 {
		t.Fatalf("the heap grew %d bytes for a %d-byte store, want at most S/16", heap, S)
	}
	if mapped < S {
		t.Fatalf("%d bytes mapped for the store's values, want at least %d", mapped, S)
	}
	runtime.KeepAlive(m)
}

// TestDroppedMapStoreUnmapsItsSlab: a store nobody references is
// collected, and its finalizer unmaps the slab: the stores counter returns
// to where it was.
func TestDroppedMapStoreUnmapsItsSlab(t *testing.T) {
	base := offheap.Stores.Live()
	func() {
		m := fillSlab(1 << 20)
		if offheap.Stores.Live() < base+1<<20 {
			t.Fatal("the store mapped less than its values")
		}
		runtime.KeepAlive(m)
	}()
	for deadline := time.Now().Add(10 * time.Second); offheap.Stores.Live() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still mapped after the store was dropped, %d before it", offheap.Stores.Live(), base)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFreedValueReadsPoison: on the heap build a slot freed by a Delete or
// by a Put of a new length is poisoned, so a value slice kept past its
// lease reads offheap.PoisonByte — as a transport body read after its
// release does — and never the next value's bytes silently. A mapped build
// leaves a freed slot as it was (a whole free chunk is unmapped).
func TestFreedValueReadsPoison(t *testing.T) {
	if offheap.Mapped {
		t.Skip("a mapped build does not poison freed slots")
	}
	m := NewMapStore()
	for _, k := range []string{"a", "b", "c"} {
		m.Put(k, bytes.Repeat([]byte{1}, 4096))
	}
	deleted, regrown := m.data["a"], m.data["b"]
	m.Delete("a")
	m.Put("b", make([]byte, 100))
	for name, v := range map[string][]byte{"deleted": deleted, "regrown": regrown} {
		if !bytes.Equal(v, bytes.Repeat([]byte{offheap.PoisonByte}, len(v))) {
			t.Fatalf("a %s value's slot still reads its bytes after the free", name)
		}
	}
	if v, _ := m.Get("c"); !bytes.Equal(v, bytes.Repeat([]byte{1}, 4096)) {
		t.Fatal("freeing a neighbour's slot touched a live value")
	}
}
