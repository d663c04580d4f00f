package recovery

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/nettransport"
	"sr3/internal/offheap"
	"sr3/internal/shard"
	"sr3/internal/simnet"
	"sr3/internal/state"
)

// tcpOverlay boots n DHT nodes over loopback TCP, a Manager on each, all on
// one transport.
func tcpOverlay(t *testing.T, n int) ([]*dht.Node, map[id.ID]*Manager, *nettransport.Network) {
	t.Helper()
	dht.RegisterWire()
	RegisterWire()
	net := nettransport.New()
	t.Cleanup(net.Close)
	var nodes []*dht.Node
	mgrs := map[id.ID]*Manager{}
	for i := 0; i < n; i++ {
		node, err := dht.NewNode(id.HashKey(fmt.Sprintf("%s-%d", t.Name(), i)), net, dht.Config{LeafSetSize: 8, KVReplicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			node.Bootstrap()
		} else if err := node.Join(nodes[0].ID()); err != nil {
			t.Fatalf("join node %d: %v", i, err)
		}
		mgrs[node.ID()] = NewManager(node)
		nodes = append(nodes, node)
	}
	return nodes, mgrs, net
}

// TestSteadySaveCycleAllocatesNothingStateSized is the write path's guard.
// A 16 MiB MapStore is saved through its view six times over TCP. The
// owner cuts shards as ranges of the view and pushes the store's own bytes,
// so it allocates nothing state-sized on any save: its heap grows by at
// most S/64 a save (S/32 on the first, which sizes the lists a save
// reuses), and it holds none of its own state. A holder reads each push
// into a body mapped at its exact size and keeps it as the replicas; the
// publication that follows unmaps the version it superseded, so after
// every publication each holder keeps one push body, of one version, and
// the mapped bodies are those shares — within one page per body for the
// frame headers — with no spare beside them. Owner and holders share this
// process, so the bodies counter is theirs together. The "growing" run adds
// a 4 KiB key before every save, so each share is a little longer than the
// last.
func TestSteadySaveCycleAllocatesNothingStateSized(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound: the race detector's shadow memory is counted too")
	}
	const S, valueBytes, saves = 16 << 20, 16 << 10, 6
	for _, grow := range []int{0, 4 << 10} {
		t.Run(fmt.Sprintf("grow=%d", grow), func(t *testing.T) {
			nodes, mgrs, _ := tcpOverlay(t, 3)
			owner := nodes[1].ID()
			mgr := mgrs[owner]
			// The first save pays for gob's type compilation and the dial path.
			if _, err := mgr.Save("warm", randomSnapshot(4<<10, 1), 8, 2, mgr.NextVersion(1)); err != nil {
				t.Fatalf("warm-up save: %v", err)
			}
			bodies := offheap.Bodies.Live() // what earlier tests left mapped
			store := state.NewMapStore()
			fill := randomSnapshot(S+saves*(valueBytes+grow), 2)
			value := func(n int) []byte { v := fill[:n]; fill = fill[n:]; return v }
			for i := 0; i < S/valueBytes; i++ {
				store.Put(fmt.Sprintf("key-%05d", i), value(valueBytes))
			}
			for i := 1; i <= saves; i++ {
				store.Put(fmt.Sprintf("key-%05d", i), value(valueBytes)) // in place
				if grow > 0 {
					store.Put(fmt.Sprintf("grow-%d", i), value(grow))
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				view, err := store.View()
				if err != nil {
					t.Fatal(err)
				}
				p, err := mgr.SaveView("app", view.Segs, 8, 2, mgr.NextVersion(int64(i+1)))
				view.Release()
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("save %d: %v", i, err)
				}
				heap := int(after.TotalAlloc - before.TotalAlloc)
				bound := S / 64
				if i == 1 {
					bound = S / 32 // also sizes what the view and the pushes reuse: a few slices per key
				}
				if heap > bound {
					t.Fatalf("save %d: the owner allocated %d bytes, want at most %d", i, heap, bound)
				}
				// What the daemon's placement put delivers to every member
				// (cluster.viewOverlay): the publication notice, on which a
				// holder drops the version the published one superseded.
				for _, h := range p.Holders() {
					mgrs[h].GCShards("app", p)
				}
				shares, pushes := 0, 0
				for nid, m := range mgrs {
					cur, prev, kept := heldApp(m, "app")
					switch {
					case nid == owner && cur+prev != 0:
						t.Fatalf("save %d: the owner holds %d + %d bytes of its own state", i, cur, prev)
					case prev != 0 || (cur > 0) != (kept == 1) || kept > 1:
						t.Fatalf("save %d: a holder keeps %d push bodies for %d + %d bytes of replicas, want one body of one version",
							i, kept, cur, prev)
					}
					shares += cur
					pushes += kept
				}
				mapped := int(offheap.Bodies.Live() - bodies)
				t.Logf("save %d of %d bytes: owner allocated %d; %d bytes mapped for %d bytes of replicas in %d bodies",
					i, view.Len, heap, mapped, shares, pushes)
				if mapped < shares || mapped > shares+pushes*4096 {
					t.Fatalf("save %d: %d bytes of push bodies mapped for %d bytes of replicas in %d bodies, want the replicas within a page a body",
						i, mapped, shares, pushes)
				}
			}
			want, err := store.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			res, err := mgrs[nodes[2].ID()].RecoverDirect("app", Star, DefaultOptions())
			if err != nil || !bytes.Equal(res.Snapshot, want) {
				t.Fatalf("recover the last save: %d bytes, err %v; want the store's %d-byte snapshot", len(res.Snapshot), err, len(want))
			}
		})
	}
}

// heldApp reads what m holds of app: the bytes of its replicas at the
// newest and the superseded version, and how many push bodies the newest
// keeps.
func heldApp(m *Manager, app string) (cur, prev, bodies int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.shards[app]
	if h == nil {
		return 0, 0, 0
	}
	for _, s := range h.cur.shards {
		cur += len(s.Data)
	}
	if h.prev != nil {
		for _, s := range h.prev.shards {
			prev += len(s.Data)
		}
	}
	return cur, prev, len(h.cur.bodies)
}

// TestFetchReplySurvivesSupersession: a fetch reply aliases the buffer the
// holder kept when the shard was pushed. Two later saves supersede that
// version — the holder drops it — after the reply was built and before the
// transport writes it; the bytes that cross must still be the shard's,
// checksum and all. Safe because the reply pins the set it reads: a dropped
// set's push body is unmapped only once the transport has run the reply's
// free func, after the bytes are on the wire (under -race it would read
// poison).
func TestFetchReplySurvivesSupersession(t *testing.T) {
	const size, m = 1 << 20, 2 // 512 KiB a shard: several chunk frames
	nodes, mgrs, _ := tcpOverlay(t, 3)
	owner := nodes[1]
	mgr := mgrs[owner.ID()]
	snap := randomSnapshot(size, 1)
	want := append([]byte(nil), snap...)
	p1, err := mgr.Save("app", snap, m, 2, mgr.NextVersion(1))
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	holder := p1.NodesForIndex(0)[0]
	hm := mgrs[holder]
	var hnode *dht.Node
	for _, n := range nodes {
		if n.ID() == holder {
			hnode = n
		}
	}
	hnode.HandleDirect(kindFetchIndex, func(from id.ID, msg simnet.Message) (simnet.Message, error) {
		reply, err := hm.handleFetchIndex(from, msg)
		for seq := int64(2); seq <= 3; seq++ {
			if _, err := mgr.Save("app", randomSnapshot(size, seq), m, 2, mgr.NextVersion(seq)); err != nil {
				return simnet.Message{}, fmt.Errorf("superseding save %d: %w", seq, err)
			}
		}
		if hm.hasShardAt("app", 0, p1.Version) {
			return simnet.Message{}, fmt.Errorf("holder still stores %v after two supersessions — test premise broken", p1.Version)
		}
		runtime.GC()
		return reply, err
	})

	resp, err := owner.Send(holder, simnet.Message{Kind: kindFetchIndex,
		Payload: &fetchIndexRequest{App: "app", Index: 0, Version: p1.Version}})
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	fr, ok := resp.Payload.(*fetchReply)
	if !ok || !fr.Found {
		t.Fatalf("fetch reply %T %+v, want the shard", resp.Payload, resp.Payload)
	}
	s := fr.Shard
	s.Data = resp.Raw
	if err := ValidateShard(s); err != nil {
		t.Fatalf("shard served across a supersession: %v", err)
	}
	if s.Version != p1.Version || !bytes.Equal(s.Data, want[s.Offset:s.Offset+len(s.Data)]) {
		t.Fatalf("served version %v, %d bytes: not the bytes saved at %v", s.Version, len(s.Data), p1.Version)
	}
}

// TestCollectReplySurvivesSupersession is the fetch test's twin for a line
// collect: the holder builds its stage's reply, which lends its replicas
// pinned, as a fetch reply does; then three saves supersede the version it
// read, each mapping fresh bodies and unmapping what it supersedes, and the
// bytes that cross must still be the shard's.
func TestCollectReplySurvivesSupersession(t *testing.T) {
	const size, m = 1 << 20, 2
	nodes, mgrs, _ := tcpOverlay(t, 3)
	owner := nodes[1]
	mgr := mgrs[owner.ID()]
	want := randomSnapshot(size, 1)
	p1, err := mgr.Save("app", want, m, 2, mgr.NextVersion(1))
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	holder := p1.NodesForIndex(0)[0]
	hm := mgrs[holder]
	var hnode *dht.Node
	for _, n := range nodes {
		if n.ID() == holder {
			hnode = n
		}
	}
	hnode.HandleDirect(kindLineCollect, func(from id.ID, msg simnet.Message) (simnet.Message, error) {
		reply, err := hm.handleLineCollect(from, msg)
		for seq := int64(2); seq <= 4; seq++ {
			if _, err := mgr.Save("app", randomSnapshot(size, seq), m, 2, mgr.NextVersion(seq)); err != nil {
				return simnet.Message{}, fmt.Errorf("superseding save %d: %w", seq, err)
			}
		}
		if hm.hasShardAt("app", 0, p1.Version) {
			return simnet.Message{}, fmt.Errorf("holder still stores %v after three supersessions — test premise broken", p1.Version)
		}
		runtime.GC()
		return reply, err
	})

	resp, err := owner.Send(holder, simnet.Message{Kind: kindLineCollect, Payload: &lineCollectMsg{
		App: "app", Version: p1.Version, Chain: []stage{{Node: holder, Indices: []int{0}}}}})
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	cr, ok := resp.Payload.(*collectReply)
	if !ok || len(cr.Shards) != 1 {
		t.Fatalf("collect reply %T %+v, want one shard", resp.Payload, resp.Payload)
	}
	got, err := DecodeShardBatch(cr.Shards, resp.Raw)
	if err != nil {
		t.Fatalf("shard collected across a supersession: %v", err)
	}
	s := got[0]
	if s.Version != p1.Version || !bytes.Equal(s.Data, want[s.Offset:s.Offset+len(s.Data)]) {
		t.Fatalf("collected version %v, %d bytes: not the bytes saved at %v", s.Version, len(s.Data), p1.Version)
	}
}

// fillStore puts S bytes of random values into a fresh MapStore, in keys of
// valueBytes each.
func fillStore(S, valueBytes int, seed int64) *state.MapStore {
	store := state.NewMapStore()
	fill := randomSnapshot(S, seed)
	for i := 0; i < S/valueBytes; i++ {
		store.Put(fmt.Sprintf("key-%05d", i), fill[i*valueBytes:(i+1)*valueBytes])
	}
	return store
}

// saveStore saves store's view through mgr.
func saveStore(t *testing.T, mgr *Manager, store *state.MapStore, m int) shard.Placement {
	t.Helper()
	view, err := store.View()
	if err != nil {
		t.Fatal(err)
	}
	p, err := mgr.SaveView("app", view.Segs, m, 2, mgr.NextVersion(1))
	view.Release()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	return p
}

// TestRecoveryAllocatesOnlyTheStore is the read path's allocation guard. A
// 16 MiB MapStore saved over TCP is recovered by star and restored into a
// fresh store: the assembler keeps the shard bodies as they lie, and the
// store parses its records across their boundaries, so one recovery
// allocates the restored store (its slab, mapped outside the heap), the
// bodies it fetched (mapped as they arrive, unmapped when the view is
// released) and at most S/16 besides, heap and both mapped uses together —
// no assembly buffer and no copy of it. A holder adopts with every index
// held here and fetches nothing; the owner, which stores none of its own
// slots, fetches it all.
func TestRecoveryAllocatesOnlyTheStore(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound: the race detector's shadow memory is counted too")
	}
	const S, valueBytes, m = 16 << 20, 16 << 10, 8
	nodes, mgrs, _ := tcpOverlay(t, 3)
	owner := nodes[1].ID()
	store := fillStore(S, valueBytes, 2)
	p := saveStore(t, mgrs[owner], store, m)
	want, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// fetched is what adopter must read off the wire: the indices it holds
	// no slot of.
	fetched := func(adopter id.ID) int {
		n := 0
		for i := 0; i < p.M; i++ {
			if !slices.Contains(p.NodesForIndex(i), adopter) {
				n += indexLen(p, i)
			}
		}
		return n
	}
	for _, tc := range []struct {
		name    string
		adopter id.ID
	}{{"holder", p.NodesForIndex(0)[0]}, {"owner", owner}} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			bodies, stores, live := offheap.Bodies.Total(), offheap.Stores.Total(), offheap.Bodies.Live()
			runtime.ReadMemStats(&before)
			_, v, err := mgrs[tc.adopter].RecoverPlacement(p, Star, DefaultOptions())
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			restored := state.NewMapStore()
			err = restored.RestoreView(v)
			v.Release()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			fetchedMapped := int(offheap.Bodies.Total() - bodies)
			storeMapped := int(offheap.Stores.Total() - stores)
			total := int(after.TotalAlloc-before.TotalAlloc) + fetchedMapped + storeMapped
			f := fetched(tc.adopter)
			bound := len(want) + f + S/16
			t.Logf("recovered %d bytes, %d fetched: %d allocated, %d of it the fetched bodies and %d the store's slab",
				len(want), f, total, fetchedMapped, storeMapped)
			if total > bound {
				t.Fatalf("one recovery allocated %d bytes (%d mapped bodies, %d mapped store), want at most the store's %d + the %d fetched + S/16 = %d",
					total, fetchedMapped, storeMapped, len(want), f, bound)
			}
			if got, err := restored.Snapshot(); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("restored %d bytes (err %v), not the saved store", len(got), err)
			}
			if after := offheap.Bodies.Live(); after != live {
				t.Fatalf("%d body bytes mapped after the view's release, %d before the recovery", after, live)
			}
		})
	}
}

// TestRecoveredViewSurvivesSupersession: a recovery's view lends the shard
// bodies as they lie, the adopter's own replicas of the recovered version
// among them. Before the store restores from the view, the adopter — the
// state's owner now — saves a newer version, whose publication retires the
// set those replicas are in and frees its push body: the new placement
// puts no slot on the owner, so nothing will be read into it. The view pins
// the set, so the free waits for the view's release and the restored store
// is byte-exact; a body freed under it would fault (unmapped) or read
// poison (race build).
func TestRecoveredViewSurvivesSupersession(t *testing.T) {
	const S, valueBytes, m = 4 << 20, 16 << 10, 2 // 2 MiB shards: mapped bodies
	nodes, mgrs, _ := tcpOverlay(t, 3)
	store := fillStore(S, valueBytes, 1)
	p1 := saveStore(t, mgrs[nodes[1].ID()], store, m)
	want, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	adopter := p1.NodesForIndex(0)[0]
	am := mgrs[adopter]
	_, v, err := am.RecoverPlacement(p1, Star, DefaultOptions())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if _, err := am.Save("app", randomSnapshot(S, 3), m, 2, am.NextVersion(2)); err != nil {
		t.Fatalf("the adopter's save: %v", err)
	}
	if am.hasShardAt("app", 0, p1.Version) {
		t.Fatalf("the adopter still stores %v after publishing its successor — test premise broken", p1.Version)
	}
	inUse := offheap.Bodies.Live()
	runtime.GC()
	restored := state.NewMapStore()
	err = restored.RestoreView(v)
	v.Release()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, err := restored.Snapshot(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restored %d bytes (err %v), not the state saved at %v", len(got), err, p1.Version)
	}
	if after := offheap.Bodies.Live(); after >= inUse {
		t.Fatalf("%d mapped bytes in use after the view's release, %d before: the retired body was not freed", after, inUse)
	}
}

// TestOwnerStoresNoneOfItsOwnSlots: an owner whose overlay lists it among
// its neighbours (as the cluster view does) finds its own node in the
// placement and stores nothing there — such a replica dies with the state
// it protects — so a save allocates no replica on the owner and pushes
// nothing to it. Replicas of the app it holds as a holder of an earlier
// owner's saves stay while its own save aborts and go once one publishes.
func TestOwnerStoresNoneOfItsOwnSlots(t *testing.T) {
	o := &soloOverlay{self: id.HashKey("solo"), handlers: map[string]simnet.Handler{}}
	m := NewManager(o)
	pushes := 0
	store := o.handlers[kindStoreBatch]
	o.handlers[kindStoreBatch] = func(from id.ID, msg simnet.Message) (simnet.Message, error) {
		pushes++
		return store(from, msg)
	}
	v := func(n uint64) state.Version { return state.Version{Timestamp: int64(n), Seq: n} }
	save := func(n uint64) (shard.Placement, error) {
		return m.Save("app", bytes.Repeat([]byte{byte(n)}, 4096), 4, 1, v(n))
	}

	earlier, err := shard.Split("app", id.HashKey("earlier owner"), bytes.Repeat([]byte{1}, 4096), 4, v(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range earlier {
		m.storeLocal(s, state.Version{})
	}
	o.putErr = fmt.Errorf("kv unreachable")
	if _, err := save(2); err == nil {
		t.Fatal("save published through a failing KV")
	}
	if cur, prev := m.ShardBytes(); cur != 4096 || prev != 0 {
		t.Fatalf("after an aborted save: cur %d prev %d, want the earlier owner's version alone", cur, prev)
	}
	o.putErr = nil
	p, err := save(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.KeysOnNode(o.self)); got != 4 {
		t.Fatalf("the placement puts %d slots on the owner, want all 4 — test premise broken", got)
	}
	if cur, prev := m.ShardBytes(); cur != 0 || prev != 0 || pushes != 0 {
		t.Fatalf("after a published save: cur %d prev %d bytes held, %d pushes to itself; want nothing", cur, prev, pushes)
	}
}

// TestMixedStoreBatchIsRefused: a push body is kept by the one replica set
// its replicas join, so a push whose replicas span two apps or two versions
// — which no save or repair sends — would join two sets with one release.
// It is refused: nothing is stored and its body is released at once.
func TestMixedStoreBatchIsRefused(t *testing.T) {
	m := NewManager(&soloOverlay{self: id.HashKey("solo"), handlers: map[string]simnet.Handler{}})
	split := func(app string, n uint64) []shard.Shard {
		ss, err := shard.Split(app, id.HashKey("owner"), bytes.Repeat([]byte{byte(n)}, 64), 2, state.Version{Timestamp: int64(n), Seq: n})
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	for name, push := range map[string][]shard.Shard{
		"two versions": {split("app", 1)[0], split("app", 2)[1]},
		"two apps":     {split("app", 1)[0], split("other", 1)[1]},
	} {
		metas, segs, _ := shardBatchSegs(push, nil, nil)
		released := 0
		msg := simnet.Message{Kind: kindStoreBatch, Payload: &storeBatchMsg{Metas: metas}, Raw: bytes.Join(segs, nil)}
		msg.SetFree(func() { released++ })
		if _, err := m.handleStoreBatch(id.HashKey("owner"), msg); err == nil {
			t.Fatalf("%s: a mixed push was stored", name)
		}
		if released != 1 || m.ShardCount() != 0 {
			t.Fatalf("%s: body released %d times, %d replicas stored; want once and none", name, released, m.ShardCount())
		}
	}
}

// soloOverlay is a one-node Overlay that lists itself as its neighbour.
type soloOverlay struct {
	self     id.ID
	handlers map[string]simnet.Handler
	kv       map[string][]byte
	putErr   error
}

func (o *soloOverlay) ID() id.ID            { return o.self }
func (o *soloOverlay) LeafSet() []id.ID     { return []id.ID{o.self} }
func (o *soloOverlay) PeerAlive(id.ID) bool { return true }
func (o *soloOverlay) Send(_ id.ID, msg simnet.Message) (simnet.Message, error) {
	return o.handlers[msg.Kind](o.self, msg)
}
func (o *soloOverlay) Put(key string, value []byte) error {
	if o.putErr != nil {
		return o.putErr
	}
	if o.kv == nil {
		o.kv = map[string][]byte{}
	}
	o.kv[key] = value
	return nil
}
func (o *soloOverlay) GetAll(key string) ([][]byte, error) { return [][]byte{o.kv[key]}, nil }
func (o *soloOverlay) HandleDirect(kind string, f simnet.Handler) {
	o.handlers[kind] = f
}
