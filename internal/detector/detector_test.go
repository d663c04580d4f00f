package detector

import (
	"sync"
	"testing"
	"time"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/simnet"
)

func TestPhiGrowsWithSilence(t *testing.T) {
	mean := float64(50 * time.Millisecond)
	std := float64(10 * time.Millisecond)
	onTime := phi(50*time.Millisecond, mean, std)
	late := phi(150*time.Millisecond, mean, std)
	veryLate := phi(500*time.Millisecond, mean, std)
	if !(onTime < late && late < veryLate) {
		t.Fatalf("phi not monotone: onTime=%v late=%v veryLate=%v", onTime, late, veryLate)
	}
	if onTime > 1 {
		t.Fatalf("on-schedule peer should have low phi, got %v", onTime)
	}
	if veryLate < 8 {
		t.Fatalf("45-sigma silence should exceed any sane threshold, got %v", veryLate)
	}
}

func TestArrivalWindowStats(t *testing.T) {
	w := newArrivalWindow(4)
	mean, std := w.meanStd(100, 5)
	if mean != 100 {
		t.Fatalf("empty window should return prior mean, got %v", mean)
	}
	for _, d := range []time.Duration{10, 20, 30, 40} {
		w.add(d)
	}
	mean, _ = w.meanStd(100, 0.1)
	if mean != 25 {
		t.Fatalf("mean of 10,20,30,40 = %v, want 25", mean)
	}
	// Ring rollover: adding a 5th sample evicts the first.
	w.add(50)
	mean, _ = w.meanStd(100, 0.1)
	if mean != 35 {
		t.Fatalf("mean after rollover = %v, want 35", mean)
	}
	// The floor applies when observed deviation is tiny.
	u := newArrivalWindow(4)
	u.add(10)
	u.add(10)
	_, std = u.meanStd(100, 7)
	if std != 7 {
		t.Fatalf("stddev floor not applied: got %v, want 7", std)
	}
}

// buildDetectors attaches a detector to every ring node. Detectors are
// not started; tests drive Tick directly or via Start.
func buildDetectors(t *testing.T, ring *dht.Ring, cfg Config) map[id.ID]*Detector {
	t.Helper()
	ds := make(map[id.ID]*Detector)
	for _, nid := range ring.IDs() {
		ds[nid] = New(ring.Node(nid), cfg)
	}
	return ds
}

func tickAll(ring *dht.Ring, ds map[id.ID]*Detector) {
	for nid, d := range ds {
		if ring.Net.Alive(nid) {
			d.Tick()
		}
	}
}

// settle waits briefly for async probe goroutines to land.
func settle() { time.Sleep(5 * time.Millisecond) }

func TestDetectsCrashedPeerWithQuorum(t *testing.T) {
	ring, err := dht.BuildConverged(dht.Config{LeafSetSize: 8}, 42, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Interval: 10 * time.Millisecond, Threshold: 3, Quorum: 2}
	ds := buildDetectors(t, ring, cfg)

	// Warm-up: several rounds of on-schedule heartbeats.
	for i := 0; i < 5; i++ {
		tickAll(ring, ds)
		settle()
		time.Sleep(cfg.Interval)
	}

	victim := ring.IDs()[3]
	// Pick an observer that actually probes the victim.
	var observer id.ID
	for _, nid := range ring.IDs() {
		if nid == victim {
			continue
		}
		for _, l := range ring.Node(nid).LeafSet() {
			if l == victim {
				observer = nid
			}
		}
	}
	if observer == id.Zero {
		t.Fatal("no observer has victim in leaf set")
	}

	ring.Fail(victim)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		tickAll(ring, ds)
		settle()
		if ds[observer].Dead(victim) {
			break
		}
		time.Sleep(cfg.Interval)
	}
	if !ds[observer].Dead(victim) {
		t.Fatalf("observer never declared crashed victim dead (phi=%v)", ds[observer].Phi(victim))
	}

	// No live node may be declared dead by any live detector.
	for nid, d := range ds {
		if nid == victim {
			continue
		}
		for _, other := range ring.IDs() {
			if other == victim {
				continue
			}
			if d.Dead(other) {
				t.Fatalf("detector on %s wrongly declared live node %s dead", nid.Short(), other.Short())
			}
		}
	}

	st := ds[observer].Snapshot()
	if st.Declarations == 0 && st.Arrivals == 0 {
		t.Fatal("observer stats recorded no activity")
	}
}

func TestOnDeadFiresOnceAndReportsDead(t *testing.T) {
	ring, err := dht.BuildConverged(dht.Config{LeafSetSize: 8}, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Interval: 10 * time.Millisecond, Threshold: 3, Quorum: 2}
	ds := buildDetectors(t, ring, cfg)

	var mu sync.Mutex
	fired := make(map[id.ID]map[id.ID]int) // detector owner -> dead peer -> count
	for _, nid := range ring.IDs() {
		owner := nid
		fired[owner] = make(map[id.ID]int)
		ds[owner].OnDeadReport(func(rep DeathReport) {
			mu.Lock()
			fired[owner][rep.Peer]++
			mu.Unlock()
		})
	}

	for i := 0; i < 5; i++ {
		tickAll(ring, ds)
		settle()
		time.Sleep(cfg.Interval)
	}
	victim := ring.IDs()[0]
	ring.Fail(victim)

	deadline := time.Now().Add(5 * time.Second)
	anyFired := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for owner, m := range fired {
			if owner != victim && m[victim] > 0 {
				return true
			}
		}
		return false
	}
	for time.Now().Before(deadline) && !anyFired() {
		tickAll(ring, ds)
		settle()
		time.Sleep(cfg.Interval)
	}
	if !anyFired() {
		t.Fatal("no OnDeadReport callback fired for crashed victim")
	}
	// Run several more rounds: each detector must fire at most once per
	// verdict, and the victim must have been purged from leaf sets.
	for i := 0; i < 5; i++ {
		tickAll(ring, ds)
		settle()
		time.Sleep(cfg.Interval)
	}
	mu.Lock()
	defer mu.Unlock()
	for owner, m := range fired {
		if m[victim] > 1 {
			t.Fatalf("detector on %s fired OnDeadReport %d times for one death", owner.Short(), m[victim])
		}
		if owner == victim {
			continue
		}
		if fired[owner][victim] > 0 {
			for _, l := range ring.Node(owner).LeafSet() {
				if l == victim {
					t.Fatalf("victim still in leaf set of %s after verdict", owner.Short())
				}
			}
		}
	}
}

func TestResurrectionClearsVerdict(t *testing.T) {
	ring, err := dht.BuildConverged(dht.Config{LeafSetSize: 8}, 11, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Interval: 10 * time.Millisecond, Threshold: 3, Quorum: 2}
	ds := buildDetectors(t, ring, cfg)
	for i := 0; i < 5; i++ {
		tickAll(ring, ds)
		settle()
		time.Sleep(cfg.Interval)
	}
	victim := ring.IDs()[1]
	ring.Fail(victim)

	anyDead := func() (id.ID, bool) {
		for nid, d := range ds {
			if nid != victim && d.Dead(victim) {
				return nid, true
			}
		}
		return id.Zero, false
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		tickAll(ring, ds)
		settle()
		if _, ok := anyDead(); ok {
			break
		}
		time.Sleep(cfg.Interval)
	}
	observer, ok := anyDead()
	if !ok {
		t.Fatal("victim never declared dead")
	}

	ring.Restore(victim)
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && ds[observer].Dead(victim) {
		tickAll(ring, ds)
		settle()
		time.Sleep(cfg.Interval)
	}
	if ds[observer].Dead(victim) {
		t.Fatal("verdict not cleared after victim resurrection")
	}
}

func TestIsolatedNodeSuppressesVerdicts(t *testing.T) {
	ring, err := dht.BuildConverged(dht.Config{LeafSetSize: 8}, 23, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Interval: 10 * time.Millisecond, Threshold: 3, Quorum: 1}
	ds := buildDetectors(t, ring, cfg)
	for i := 0; i < 5; i++ {
		tickAll(ring, ds)
		settle()
		time.Sleep(cfg.Interval)
	}

	// Sever one node from everyone with a partition: its probes all fail,
	// so it will come to suspect its entire leaf set. Even with Quorum=1
	// the self-isolation guard must withhold the verdicts.
	loner := ring.IDs()[2]
	newPartition(ring, loner)
	for i := 0; i < 60; i++ {
		ds[loner].Tick()
		settle()
		time.Sleep(cfg.Interval / 2)
	}
	for _, other := range ring.IDs() {
		if other == loner {
			continue
		}
		if ds[loner].Dead(other) {
			t.Fatalf("isolated node declared %s dead despite suppression guard", other.Short())
		}
	}
	if ds[loner].Snapshot().Suppressed == 0 {
		t.Fatal("suppression guard never engaged")
	}
}

// newPartition severs one node from the rest of the ring via chaos.
func newPartition(ring *dht.Ring, loner id.ID) {
	var rest []id.ID
	for _, nid := range ring.IDs() {
		if nid != loner {
			rest = append(rest, nid)
		}
	}
	ch := simnet.NewChaos(1)
	ch.Partition([]id.ID{loner}, rest)
	ring.Net.SetChaos(ch)
}
