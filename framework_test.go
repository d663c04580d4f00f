package sr3

import (
	"bytes"
	"fmt"
	"testing"

	"sr3/internal/obs"
	"sr3/internal/state"
	"sr3/internal/stream"
)

// TestSaveRefreshesState: repeated saves supersede; recovery returns the
// latest version.
func TestSaveRefreshesState(t *testing.T) {
	f := newFramework(t, 40, 20)
	v1 := randomState(10_000, 1)
	v2 := randomState(12_000, 2)
	if err := f.Save("app", v1); err != nil {
		t.Fatal(err)
	}
	if err := f.Save("app", v2); err != nil {
		t.Fatal(err)
	}
	owner, _ := f.OwnerOf("app")
	f.FailNode(owner)
	rep, err := f.Recover("app")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.State, v2) {
		t.Fatal("recovery did not return the latest save")
	}
}

// TestStateStoreRoundTripsThroughFramework: every public state store
// survives Save/Recover byte-identically.
func TestStateStoreRoundTripsThroughFramework(t *testing.T) {
	f := newFramework(t, 40, 21)

	ms := NewMapStore()
	ms.Put("k1", []byte("v1"))
	ms.Put("k2", []byte("v2"))
	bf := NewBloomFilter(1000, 0.01)
	bf.Add("ip-1")
	bf.Add("ip-2")
	gs := NewGraphStore()
	gs.AddEdge("a", "b")
	gs.AddEdge("b", "c")

	stores := map[string]StateStore{"map": ms, "bloom": bf, "graph": gs}
	for name, st := range stores {
		snap, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Save("store/"+name, snap); err != nil {
			t.Fatal(err)
		}
	}
	// Fail each owner, recover each state, restore into fresh stores.
	for name := range stores {
		owner, err := f.OwnerOf("store/" + name)
		if err != nil {
			t.Fatal(err)
		}
		f.FailNode(owner)
	}
	f.MaintenanceRound()

	freshMap, freshBloom, freshGraph := NewMapStore(), NewBloomFilter(1, 0.5), NewGraphStore()
	for name, st := range map[string]StateStore{"map": freshMap, "bloom": freshBloom, "graph": freshGraph} {
		rep, err := f.Recover("store/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Restore(rep.State); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := freshMap.Get("k2"); !ok || string(v) != "v2" {
		t.Fatalf("map lost data: %q %v", v, ok)
	}
	if !freshBloom.Test("ip-1") || !freshBloom.Test("ip-2") {
		t.Fatal("bloom filter lost memberships")
	}
	if freshGraph.Weight("a", "b") != 1 || freshGraph.Weight("b", "c") != 1 {
		t.Fatal("graph lost edges")
	}
}

// TestWindowBoltsViaPublicAPI: the re-exported window constructors work
// inside a runtime built from package sr3 alone.
func TestWindowBoltsViaPublicAPI(t *testing.T) {
	topo := NewTopology("winpub")
	n := 0
	err := topo.AddSpout("src", SpoutFunc(func() (Tuple, bool) {
		if n >= 40 {
			return Tuple{}, false
		}
		n++
		return Tuple{Values: []any{1.0}, Ts: int64(n * 3)}, true
	}))
	if err != nil {
		t.Fatal(err)
	}
	counts := 0
	win := NewTumblingWindow(30, func(w []Tuple) []any { return []any{len(w)} })
	if err := topo.AddBolt("win", win, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	sinkBolt := BoltFunc(func(tp Tuple, _ Emit) error {
		counts += tp.Values[2].(int)
		return nil
	})
	if err := topo.AddBolt("sink", sinkBolt, 1).Global("win").Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, RuntimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if counts != 40 {
		t.Fatalf("windows covered %d tuples, want 40", counts)
	}
}

// TestManyAppsLoadSpread: saving many apps spreads shards across the
// overlay (the root-level view of Fig 11).
func TestManyAppsLoadSpread(t *testing.T) {
	f := newFramework(t, 100, 22)
	const apps = 30
	for i := 0; i < apps; i++ {
		if err := f.Save(fmt.Sprintf("spread-%d", i), randomState(8000, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Count shard-holding nodes via the cluster's managers.
	holding := 0
	for _, nid := range f.Nodes() {
		if f.cluster.Manager(nid).ShardCount() > 0 {
			holding++
		}
	}
	// 30 apps × 16 replicas over random owners' leaf sets must touch a
	// sizable fraction of a 100-node overlay.
	if holding < 50 {
		t.Fatalf("only %d of 100 nodes hold shards", holding)
	}
}

// TestBackendDefaultsFromConfig: zero shard/replica args fall back to the
// framework defaults.
func TestBackendDefaultsFromConfig(t *testing.T) {
	f, err := New(Config{Nodes: 30, Seed: 23, DefaultShards: 5, DefaultReplicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	backend := f.Backend(Star, 0, 0)
	if err := backend.Save(stream.TaskKey("t", "b", 0), state.ViewOf(randomState(4000, 3)), state.Version{Timestamp: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	snap, err := backend.Recover(stream.TaskKey("t", "b", 0), nil, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len != 4000 {
		t.Fatalf("recovered %d bytes", snap.Len)
	}
}

// TestHealRecoversDeadOwners: the self-healing pass detects dead owners
// and re-protects their states automatically.
func TestHealRecoversDeadOwners(t *testing.T) {
	f := newFramework(t, 70, 30)
	states := map[string][]byte{
		"heal-a": randomState(9000, 1),
		"heal-b": randomState(11000, 2),
		"heal-c": randomState(7000, 3),
	}
	for name, st := range states {
		if err := f.Save(name, st); err != nil {
			t.Fatal(err)
		}
	}
	// Kill two of the three owners.
	for _, name := range []string{"heal-a", "heal-c"} {
		owner, err := f.OwnerOf(name)
		if err != nil {
			t.Fatal(err)
		}
		f.FailNode(owner)
	}
	f.MaintenanceRound()

	report, err := f.Heal()
	if err != nil {
		t.Fatal(err)
	}
	if report.Checked != 3 {
		t.Fatalf("checked %d, want 3", report.Checked)
	}
	if len(report.Recovered) != 2 {
		t.Fatalf("recovered %d states, want 2", len(report.Recovered))
	}
	for _, rec := range report.Recovered {
		if !bytes.Equal(rec.State, states[rec.App]) {
			t.Fatalf("healed state %s differs", rec.App)
		}
	}
	// Healing is idempotent: a second pass finds nothing to do.
	report2, err := f.Heal()
	if err != nil {
		t.Fatal(err)
	}
	if len(report2.Recovered) != 0 {
		t.Fatalf("second heal recovered %d states", len(report2.Recovered))
	}
	// And the healed states are re-protected: kill the new owners too.
	for _, rec := range report.Recovered {
		owner, err := f.OwnerOf(rec.App)
		if err != nil {
			t.Fatal(err)
		}
		f.FailNode(owner)
	}
	f.MaintenanceRound()
	report3, err := f.Heal()
	if err != nil {
		t.Fatalf("heal after second failure wave: %v", err)
	}
	if len(report3.Recovered) != 2 {
		t.Fatalf("third heal recovered %d, want 2", len(report3.Recovered))
	}
}

// TestSaveTakesStateByValue: Save is the by-value boundary of the API. The
// recovery layer shards, stores and sends the buffer it is given in place,
// so Save hands it a copy: a caller that goes on writing into stateBytes
// (a reused serialization buffer) must still recover what it saved.
func TestSaveTakesStateByValue(t *testing.T) {
	f := newFramework(t, 40, 24)
	buf := randomState(10_000, 3)
	saved := append([]byte(nil), buf...)
	if err := f.Save("app", buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] ^= 0xff
	}
	owner, _ := f.OwnerOf("app")
	f.FailNode(owner)
	rep, err := f.Recover("app")
	if err != nil {
		t.Fatalf("recover after the caller reused its buffer: %v", err)
	}
	if !bytes.Equal(rep.State, saved) {
		t.Fatal("recovered state follows the caller's later writes, not the bytes saved")
	}
}
