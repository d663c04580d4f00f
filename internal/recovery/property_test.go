package recovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sr3/internal/id"
	"sr3/internal/shard"
	"sr3/internal/simnet"
	"sr3/internal/state"
)

// TestPropertyRecoverUnderRandomFailures: for random states, shard
// geometries and failure sets that leave at least one replica of every
// shard alive, every mechanism recovers the exact bytes.
func TestPropertyRecoverUnderRandomFailures(t *testing.T) {
	mechs := []Mechanism{Star, Line, Tree}
	trial := 0
	f := func(seed int64, sizeRaw uint16, mRaw, rRaw uint8) bool {
		trial++
		rng := rand.New(rand.NewSource(seed))
		size := int(sizeRaw)%20000 + 100
		m := int(mRaw)%12 + 2
		replicas := int(rRaw)%2 + 2 // 2 or 3

		c := buildCluster(t, 50, seed)
		owner := c.Ring.IDs()[rng.Intn(50)]
		snap := randomSnapshot(size, seed)
		mgr := c.Manager(owner)
		if _, err := mgr.Save("papp", snap, m, replicas, mgr.NextVersion(1)); err != nil {
			t.Logf("trial %d: save: %v", trial, err)
			return false
		}
		p, _ := mgr.Placement("papp")

		// Fail the owner plus up to 5 random nodes, but never the last
		// replica of any index, nor the last live KV copy of the placement
		// record (a state whose placement is unreadable is legitimately
		// unrecoverable, which is not the property under test).
		kvKey := placementKVKey("papp")
		holdsPlacement := func(nid id.ID) bool {
			for _, k := range c.Ring.Node(nid).LocalKeys() {
				if k == kvKey {
					return true
				}
			}
			return false
		}
		c.Ring.Fail(owner)
		for k := 0; k < 5; k++ {
			victim := c.Ring.IDs()[rng.Intn(50)]
			if victim == owner || !c.Ring.Net.Alive(victim) {
				continue
			}
			safe := true
			for i := 0; i < p.M; i++ {
				liveLeft := 0
				for _, h := range p.NodesForIndex(i) {
					if h != victim && c.Ring.Net.Alive(h) {
						liveLeft++
					}
				}
				if liveLeft == 0 {
					safe = false
					break
				}
			}
			if safe && holdsPlacement(victim) {
				copiesLeft := 0
				for _, nid := range c.Ring.LiveIDs() {
					if nid != victim && holdsPlacement(nid) {
						copiesLeft++
					}
				}
				if copiesLeft == 0 {
					safe = false
				}
			}
			if safe {
				c.Ring.Fail(victim)
			}
		}

		mech := mechs[rng.Intn(len(mechs))]
		res, err := joined(c.Recover("papp", mech, DefaultOptions()))
		if err != nil {
			t.Logf("trial %d (%s m=%d r=%d): recover: %v", trial, mech, m, replicas, err)
			return false
		}
		if !bytes.Equal(res.Snapshot, snap) {
			t.Logf("trial %d (%s): snapshot mismatch", trial, mech)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPlanCoversAllBytes: timed-plan stages always account for
// exactly the full state volume regardless of which nodes died.
func TestPropertyPlanCoversAllBytes(t *testing.T) {
	f := func(seed int64, mRaw, killRaw uint8) bool {
		m := int(mRaw)%20 + 1
		kills := int(killRaw) % 10

		rng := rand.New(rand.NewSource(seed))
		nodes := make([]id.ID, 24)
		for i := range nodes {
			nodes[i] = id.Random(rng)
		}
		total := 1000*m + int(seed%977)
		if total < 0 {
			total = -total
		}
		p, err := shard.Place("app", id.HashKey("owner"), m, 2,
			state.Version{Timestamp: 1}, total, nodes)
		if err != nil {
			return false
		}
		dead := make(map[id.ID]bool)
		for k := 0; k < kills; k++ {
			dead[nodes[rng.Intn(len(nodes))]] = true
		}
		alive := func(n id.ID) bool { return !dead[n] }
		stages, err := StagesFromPlacement(p, alive, id.HashKey("replacement"))
		if err != nil {
			// Acceptable only if some index truly lost all replicas.
			for i := 0; i < p.M; i++ {
				liveLeft := 0
				for _, h := range p.NodesForIndex(i) {
					if alive(h) {
						liveLeft++
					}
				}
				if liveLeft == 0 {
					return true
				}
			}
			return false
		}
		var sum float64
		for _, st := range stages {
			sum += st.Bytes
		}
		return int(sum) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPlansAreValidDAGs: every mechanism's plan passes the
// simulator's validation (acyclic, well-formed) for arbitrary stage
// shapes and knob settings.
func TestPropertyPlansAreValidDAGs(t *testing.T) {
	f := func(seed int64, nRaw, knobRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%30 + 1
		stages := make([]PlanStage, n)
		total := 0.0
		for i := range stages {
			b := float64(rng.Intn(100000) + 1)
			stages[i] = PlanStage{Node: fmt.Sprintf("n%d", i), Bytes: b, Fallbacks: rng.Intn(3)}
			total += b
		}
		spec := PlanSpec{
			App: "app", TotalBytes: total, Stages: stages,
			Replacement: "repl", RouteDelay: 0.1,
			FailureDetectDelay: 0.5, FlowPenalty: 0.15, StoreForwardBeta: 0.1,
		}
		opts := Options{
			StarFanoutBit:   int(knobRaw) % 5,
			LinePathLength:  int(knobRaw) % 40,
			TreeFanoutBit:   int(knobRaw)%4 + 1,
			TreeBranchDepth: int(knobRaw)%16 + 1,
		}
		sim := simnet.NewSim(simnet.Res{UpBps: 1e6, DownBps: 1e6, ComputeBps: 1e6})
		for _, mech := range []Mechanism{Star, Line, Tree} {
			p := NewPlanner()
			switch mech {
			case Star:
				p.Star(spec, opts)
			case Line:
				p.Line(spec, opts)
			case Tree:
				p.Tree(spec, opts)
			}
			if _, err := sim.Run(p.Tasks()); err != nil {
				t.Logf("%s: %v", mech, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedSaveRecoverCycles: save → fail → recover → re-save from the
// replacement → fail again → recover, several times over. This is the
// long-running-application lifecycle.
func TestRepeatedSaveRecoverCycles(t *testing.T) {
	c := buildCluster(t, 70, 99)
	snap := randomSnapshot(30_000, 99)
	owner := c.Ring.IDs()[0]
	mgr := c.Manager(owner)
	if _, err := mgr.Save("cyc", snap, 8, 2, mgr.NextVersion(1)); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 4; cycle++ {
		anyNode, err := c.Ring.AnyLive()
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.managers[anyNode.ID()].LookupPlacement("cyc")
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		c.Ring.Fail(p.Owner)
		c.Ring.MaintenanceRound()

		res, err := joined(c.Recover("cyc", Mechanism(cycle%3+1), DefaultOptions()))
		if err != nil {
			t.Fatalf("cycle %d: recover: %v", cycle, err)
		}
		if !bytes.Equal(res.Snapshot, snap) {
			t.Fatalf("cycle %d: state corrupted", cycle)
		}
		// The replacement becomes the new owner and re-saves.
		newMgr := c.Manager(res.Replacement)
		if _, err := newMgr.Save("cyc", res.Snapshot, 8, 2,
			newMgr.NextVersion(int64(cycle+2))); err != nil {
			t.Fatalf("cycle %d: re-save: %v", cycle, err)
		}
	}
}

// TestConcurrentRecoveriesShareProviders: many apps saved from nearby
// owners recover concurrently through overlapping leaf sets.
func TestConcurrentRecoveriesShareProviders(t *testing.T) {
	c := buildCluster(t, 60, 101)
	const apps = 8
	snaps := make([][]byte, apps)
	names := make([]string, apps)
	for i := 0; i < apps; i++ {
		names[i] = fmt.Sprintf("shared-%d", i)
		snaps[i] = randomSnapshot(12_000, int64(i))
		owner := c.Ring.IDs()[i] // clustered owners → overlapping leaf sets
		mgr := c.Manager(owner)
		if _, err := mgr.Save(names[i], snaps[i], 6, 2, mgr.NextVersion(1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < apps; i++ {
		c.Ring.Fail(c.Ring.IDs()[i])
	}
	c.Ring.MaintenanceRound()
	results, err := recoverAll(c, names, Star)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !bytes.Equal(res.Snapshot, snaps[i]) {
			t.Fatalf("app %s corrupted", names[i])
		}
	}
}
