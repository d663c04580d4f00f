package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sr3/internal/simnet"
	"sr3/internal/state"
)

func TestStoreSaveFetch(t *testing.T) {
	s := NewStore()
	s.Save("app", []byte("v1"), state.Version{Timestamp: 1})
	got, v, err := s.Fetch("app")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1" || v.Timestamp != 1 {
		t.Fatalf("got %q %v", got, v)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestStoreKeepsNewestVersion(t *testing.T) {
	s := NewStore()
	s.Save("app", []byte("new"), state.Version{Timestamp: 5})
	s.Save("app", []byte("stale"), state.Version{Timestamp: 3})
	got, _, err := s.Fetch("app")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("stale write clobbered checkpoint: %q", got)
	}
}

func TestFetchMissing(t *testing.T) {
	s := NewStore()
	if _, _, err := s.Fetch("ghost"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("got %v", err)
	}
}

// TestCheckpointRecoverEndToEnd exercises the real baseline path: save,
// buffer updates, crash, fetch + replay.
func TestCheckpointRecoverEndToEnd(t *testing.T) {
	store := NewStore()
	primary := state.NewMapStore()
	var buf [][]byte // the records forwarded since the checkpoint

	apply := func(st *state.MapStore, rec []byte) {
		st.Put(string(rec), rec)
	}

	// Phase 1: process 50 records, checkpoint, then 30 more (buffered).
	for i := 0; i < 50; i++ {
		rec := []byte(fmt.Sprintf("rec-%d", i))
		apply(primary, rec)
	}
	snap, err := primary.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	store.Save("op", snap, state.Version{Timestamp: 1})
	for i := 50; i < 80; i++ {
		rec := []byte(fmt.Sprintf("rec-%d", i))
		apply(primary, rec)
		buf = append(buf, rec)
	}

	// Crash; standby recovers.
	standby := state.NewMapStore()
	cp, _, err := store.Fetch("op")
	if err != nil {
		t.Fatal(err)
	}
	if err := standby.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for _, rec := range buf {
		apply(standby, rec)
	}

	want, _ := primary.Snapshot()
	got, _ := standby.Snapshot()
	if !bytes.Equal(want, got) {
		t.Fatal("standby state differs from lost primary state")
	}
}

func TestPlanRecoverTiming(t *testing.T) {
	b := simnet.NewPlanBuilder()
	PlanRecover(b, Spec{
		App: "app", Node: "standby", StoreNode: "hdfs", UpstreamNode: "up",
		TotalBytes: 128e6, ReplayFactor: 1, RouteDelay: 0.2,
	})
	sim := simnet.NewSim(simnet.Res{UpBps: 125e6, DownBps: 125e6, ComputeBps: 10e6})
	sim.SetNode("hdfs", simnet.Res{UpBps: 4e6, DownBps: 4e6, ComputeBps: 1e12})
	res, err := sim.Run(b.Tasks())
	if err != nil {
		t.Fatal(err)
	}
	// Fetch 128 MB at 4 MB/s = 32 s, restore 12.8 s, replay+apply more:
	// checkpointing lands in the tens of seconds, way above SR3 star.
	if res.Makespan < 40 {
		t.Fatalf("checkpoint recovery %v s implausibly fast", res.Makespan)
	}
}

func TestPlanSaveTiming(t *testing.T) {
	b := simnet.NewPlanBuilder()
	PlanSave(b, Spec{App: "app", Node: "op", StoreNode: "hdfs", TotalBytes: 64e6, RouteDelay: 0.1})
	sim := simnet.NewSim(simnet.Res{UpBps: 125e6, DownBps: 125e6, ComputeBps: 40e6})
	sim.SetNode("hdfs", simnet.Res{UpBps: 4e6, DownBps: 4e6, ComputeBps: 1e12})
	res, err := sim.Run(b.Tasks())
	if err != nil {
		t.Fatal(err)
	}
	// Bound by the 4 MB/s remote ingest: ≥ 16 s.
	if res.Makespan < 16 {
		t.Fatalf("checkpoint save %v s too fast", res.Makespan)
	}
}

// TestReplayFactorDefaultAndScaling: an unset (or negative) ReplayFactor
// defaults to 1×, and a larger factor strictly lengthens recovery — the
// knob behind Fig 8's replay sensitivity.
func TestReplayFactorDefaultAndScaling(t *testing.T) {
	if got := (Spec{}).replayFactor(); got != 1 {
		t.Fatalf("zero ReplayFactor = %g, want 1", got)
	}
	if got := (Spec{ReplayFactor: -2}).replayFactor(); got != 1 {
		t.Fatalf("negative ReplayFactor = %g, want 1", got)
	}
	if got := (Spec{ReplayFactor: 3.5}).replayFactor(); got != 3.5 {
		t.Fatalf("ReplayFactor passthrough = %g", got)
	}

	run := func(factor float64) float64 {
		b := simnet.NewPlanBuilder()
		PlanRecover(b, Spec{
			App: "app", Node: "standby", StoreNode: "hdfs", UpstreamNode: "up",
			TotalBytes: 64e6, ReplayFactor: factor, RouteDelay: 0.1,
		})
		sim := simnet.NewSim(simnet.Res{UpBps: 125e6, DownBps: 125e6, ComputeBps: 10e6})
		sim.SetNode("hdfs", simnet.Res{UpBps: 4e6, DownBps: 4e6, ComputeBps: 1e12})
		res, err := sim.Run(b.Tasks())
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	base := run(0) // defaulted to 1×
	if one := run(1); one != base {
		t.Fatalf("factor 0 (defaulted) %g != factor 1 %g", base, one)
	}
	if four := run(4); four <= base {
		t.Fatalf("4× replay (%g s) not slower than 1× (%g s)", four, base)
	}
}
