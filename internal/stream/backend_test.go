package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sr3/internal/checkpoint"
	"sr3/internal/dht"
	"sr3/internal/obs"
	"sr3/internal/offheap"
	"sr3/internal/state"
)

func TestReplicationBackendEndToEnd(t *testing.T) {
	backend := NewReplicationBackend()
	counts := runWordCountWithFailure(t, backend, nil)
	for w, n := range counts {
		if n != 40 {
			t.Fatalf("count[%s] = %d, want 40", w, n)
		}
	}
}

// TestReplicationBackendRepeatedFailover: Recover fails the primary and
// re-establishes the pair, so a second crash later is survivable too.
func TestReplicationBackendRepeatedFailover(t *testing.T) {
	backend := NewReplicationBackend()
	if err := backend.Save("k", state.ViewOf([]byte("v1")), state.Version{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		snap, err := backend.Recover("k", nil, obs.SpanContext{})
		if err != nil {
			t.Fatalf("failover %d: %v", i, err)
		}
		if got := snap.Join(); string(got) != "v1" {
			t.Fatalf("failover %d: snapshot = %q", i, got)
		}
	}
}

func TestFP4SBackendEndToEnd(t *testing.T) {
	ring, err := dht.NewRing(dht.DefaultConfig(), 400, 40)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewFP4SBackend(ring, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	counts := runWordCountWithFailure(t, backend, nil)
	for w, n := range counts {
		if n != 40 {
			t.Fatalf("count[%s] = %d, want 40", w, n)
		}
	}
}

func TestFP4SBackendSurvivesOwnerNodeFailure(t *testing.T) {
	// The owner dies after Save: recovery coordinates from a replacement
	// and decodes from any k of the n scattered blocks.
	ring, err := dht.NewRing(dht.DefaultConfig(), 401, 50)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewFP4SBackend(ring, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	taskKey := TaskKey("itest", "count", 0)
	counts := runWordCountWithFailure(t, backend, func() {
		owner, ok := ring.ClosestLive(hashTask(taskKey))
		if !ok {
			t.Fatal("no owner")
		}
		ring.Fail(owner)
		ring.MaintenanceRound()
	})
	for w, n := range counts {
		if n != 40 {
			t.Fatalf("count[%s] = %d, want 40", w, n)
		}
	}
}

// TestBackendsKeepTheStateAsOfTheSave: Save borrows the store's view — the
// store's own value slices among its segments — and once it returns the
// store changes again, rewriting values in place. Every in-process backend
// must recover the state as it was at the save.
func TestBackendsKeepTheStateAsOfTheSave(t *testing.T) {
	ring, err := dht.NewRing(dht.DefaultConfig(), 402, 30)
	if err != nil {
		t.Fatal(err)
	}
	fp4s, err := NewFP4SBackend(ring, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]StateBackend{
		"memory":      NewMemoryBackend(),
		"checkpoint":  NewCheckpointBackend(checkpoint.NewStore()),
		"replication": NewReplicationBackend(),
		"fp4s":        fp4s,
		"sr3":         NewSR3Backend(buildSR3Cluster(t, 30, 403), 4, 2),
	}
	fill := func(store *state.MapStore, b byte) {
		for i := 0; i < 64; i++ {
			store.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{b}, 1024)) // lent by the view
		}
		store.Put("small", []byte{b, b}) // copied into its scratch
	}
	for name, b := range backends {
		t.Run(name, func(t *testing.T) {
			store := state.NewMapStore()
			fill(store, 1)
			want, err := store.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			view, err := store.View()
			if err != nil {
				t.Fatal(err)
			}
			err = b.Save("t/b/0", view, state.Version{Timestamp: 1, Seq: 1})
			view.Release()
			if err != nil {
				t.Fatalf("save: %v", err)
			}
			fill(store, 2) // same lengths: every value rewritten in place
			got, err := b.Recover("t/b/0", nil, obs.SpanContext{})
			if err != nil || !bytes.Equal(got.Join(), want) {
				t.Fatalf("recovered %d bytes (err %v): not the state as of the save", got.Len, err)
			}
			got.Release()
		})
	}
}

// mapStoreBolt is a stateful bolt that does nothing but hold its store.
type mapStoreBolt struct{ store *state.MapStore }

func (b *mapStoreBolt) Execute(Tuple, Emit) error { return nil }
func (b *mapStoreBolt) Store() StateStore         { return b.store }

// TestInProcessRecoveryAllocatesOnlyTheStore is the in-process read path's
// allocation guard, the runtime-level twin of recovery's
// TestRecoveryAllocatesOnlyTheStore. A 16 MiB MapStore task is saved
// through SR3Backend on an in-process ring, killed and recovered, and the
// task restores from the shard bodies the recovery lends. Over TCP the
// bound is the fetched bodies + the store + S/8; in process a holder lends
// its replica by reference, so the bodies cost nothing and RecoverTask may
// allocate the restored store's slab and at most S/8 besides, heap and
// mapped bytes together. A joined copy of the state, or a copy kept by the
// backend, is another S and fails it.
func TestInProcessRecoveryAllocatesOnlyTheStore(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound: the race detector's shadow memory is counted too")
	}
	const S, valueBytes = 16 << 20, 16 << 10
	bolt := &mapStoreBolt{store: state.NewMapStore()}
	rng := rand.New(rand.NewSource(7))
	val := make([]byte, valueBytes)
	for i := 0; i < S/valueBytes; i++ {
		rng.Read(val)
		bolt.store.Put(fmt.Sprintf("key-%05d", i), val)
	}
	want, err := bolt.store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	topo := NewTopology("alloc")
	if err := topo.AddSource("src"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("state", bolt, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{Backend: NewSR3Backend(buildSR3Cluster(t, 20, 11), 8, 2)})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Wait()
	if err := rt.Save("state", 0); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := rt.Kill("state", 0); err != nil {
		t.Fatal(err)
	}
	bolt.store.Put("key-00000", make([]byte, valueBytes)) // lost with the task
	var before, after runtime.MemStats
	bodies, stores := offheap.Bodies.Total(), offheap.Stores.Total()
	runtime.ReadMemStats(&before)
	err = rt.RecoverTask("state", 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	mapped := int(offheap.Bodies.Total()-bodies) + int(offheap.Stores.Total()-stores)
	total := int(after.TotalAlloc-before.TotalAlloc) + mapped
	bound := len(want) + S/8
	t.Logf("recovered %d bytes: %d allocated, %d of it mapped", len(want), total, mapped)
	if total > bound {
		t.Fatalf("RecoverTask allocated %d bytes (%d mapped), want at most the store's %d + S/8 = %d",
			total, mapped, len(want), bound)
	}
	if got, err := bolt.store.Snapshot(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restored %d bytes (err %v), not the state as of the save", len(got), err)
	}
}
