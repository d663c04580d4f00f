package recovery

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/nettransport"
	"sr3/internal/simnet"
	"sr3/internal/state"
)

// tcpOverlay boots n DHT nodes over loopback TCP, a Manager on each.
func tcpOverlay(t *testing.T, n int) ([]*dht.Node, map[id.ID]*Manager) {
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
	return nodes, mgrs
}

// TestSaveAllocatesOneBufferPerHolder is the write path's allocation
// guard: with the snapshot handed over, a 16 MiB save allocates nothing
// state-sized on the owner — the shards are views, the push sends them in
// place — and on a holder only the buffer its share is read into, which
// the holder keeps. Owner and holders share this process, so the bound is
// on their sum: every byte allocated beyond the bodies the holders read
// must fit in S/8.
func TestSaveAllocatesOneBufferPerHolder(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound: the race detector's shadow memory is counted too")
	}
	const S = 16 << 20
	nodes, mgrs := tcpOverlay(t, 3)
	owner := nodes[1].ID()
	mgr := mgrs[owner]
	// The first save pays for gob's type compilation and the dial path.
	if _, err := mgr.Save("warm", randomSnapshot(4<<10, 1), 8, 2, mgr.NextVersion(1)); err != nil {
		t.Fatalf("warm-up save: %v", err)
	}
	snap := randomSnapshot(S, 2)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := mgr.Save("app", snap, 8, 2, mgr.NextVersion(2))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("save: %v", err)
	}

	read := 0 // bytes the holders read off their sockets
	for _, h := range p.Holders() {
		cur, prev := mgrs[h].ShardBytes()
		if h == owner {
			continue
		}
		if prev != 0 {
			t.Fatalf("holder %s keeps %d bytes of an older version after a first save", h.Short(), prev)
		}
		read += cur + dht.FrameOverhead*len(p.KeysOnNode(h))
	}
	if read < S {
		t.Fatalf("holders read %d bytes of a %d-byte state at r=2 — test premise broken", read, S)
	}
	got := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("one %d-byte save allocated %d bytes: the %d the holders read + %d", S, got, read, got-read)
	if got > read+S/8 {
		t.Fatalf("one save allocated %d bytes: %d beyond the %d the holders read, want at most S/8 = %d",
			got, got-read, read, S/8)
	}
}

// TestFetchReplySurvivesSupersession: a fetch reply aliases the buffer the
// holder kept when the shard was pushed. Two later saves supersede that
// version — the holder drops it — after the reply was built and before the
// transport writes it; the bytes that cross must still be the shard's,
// checksum and all. Safe only because kept buffers are the garbage
// collector's: nothing returns one to a pool while a reply still reads it.
func TestFetchReplySurvivesSupersession(t *testing.T) {
	const size, m = 1 << 20, 2 // 512 KiB a shard: several chunk frames
	nodes, mgrs := tcpOverlay(t, 3)
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

// TestOwnerDropsSupersededVersionOnPublish: an owner that holds replicas of
// its own state (its overlay lists it among its neighbours, as the cluster
// view does) keeps the version a save supersedes only until the new
// placement is published — and keeps it when the save aborts.
func TestOwnerDropsSupersededVersionOnPublish(t *testing.T) {
	o := &soloOverlay{self: id.HashKey("solo"), handlers: map[string]simnet.Handler{}}
	m := NewManager(o)
	v := func(n uint64) state.Version { return state.Version{Timestamp: int64(n), Seq: n} }
	save := func(n uint64) error {
		_, err := m.Save("app", bytes.Repeat([]byte{byte(n)}, 4096), 4, 1, v(n))
		return err
	}
	held := func() (cur, prev int) { return m.ShardBytes() }

	if err := save(1); err != nil {
		t.Fatal(err)
	}
	if cur, prev := held(); cur != 4096 || prev != 0 {
		t.Fatalf("after the first save: cur %d prev %d, want 4096 and 0", cur, prev)
	}
	if err := save(2); err != nil {
		t.Fatal(err)
	}
	if cur, prev := held(); cur != 4096 || prev != 0 {
		t.Fatalf("after a published second save: cur %d prev %d, want one version", cur, prev)
	}
	o.putErr = fmt.Errorf("kv unreachable")
	if err := save(3); err == nil {
		t.Fatal("save published through a failing KV")
	}
	if cur, prev := held(); cur != 4096 || prev != 4096 {
		t.Fatalf("after an aborted save: cur %d prev %d, want the published version kept beside it", cur, prev)
	}
	if got := m.localShardsFor("app", []int{0, 1, 2, 3}, v(2)); len(got) != 4 {
		t.Fatalf("published version has %d of 4 shards left after an aborted save", len(got))
	}
	o.putErr = nil
	if err := save(4); err != nil {
		t.Fatal(err)
	}
	if cur, prev := held(); cur != 4096 || prev != 0 {
		t.Fatalf("after the next published save: cur %d prev %d, want one version", cur, prev)
	}
	if got := m.localShardsFor("app", []int{0, 1, 2, 3}, v(4)); len(got) != 4 {
		t.Fatalf("newest version has %d of 4 shards", len(got))
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
