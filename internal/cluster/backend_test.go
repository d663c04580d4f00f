package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sr3/internal/id"
	"sr3/internal/recovery"
	"sr3/internal/simnet"
	"sr3/internal/state"
)

// Recovery-layer message kinds, as they cross the overlay.
const (
	kindStoreBatch  = "sr3.shard.storeBatch"
	kindFetchIndex  = "sr3.shard.fetchIndex"
	kindLineCollect = "sr3.line.collect"
	kindTreeCollect = "sr3.tree.collect"
)

// wrapHandler replaces n's handler for kind with wrap(the current one).
func wrapHandler(n *Node, kind string, wrap func(next simnet.Handler) simnet.Handler) {
	o := n.backend.overlay
	o.mu.Lock()
	defer o.mu.Unlock()
	o.handlers[kind] = wrap(o.handlers[kind])
}

// idleSpec keeps the whole (tiny) topology on n1, so the other members
// only hold what the tests save through their backends.
func idleSpec() *Spec { return testSpec("n1", "n1", "n1", 10, 2, 0, 100) }

func randomBlob(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(b)
	return b
}

// TestRecoverThroughEveryMechanism is the only place line and tree run on
// the daemon (no benchmark workload reaches the 32 MiB the §3.7 selection
// needs): on a three-node cluster a task saved by n2 is rebuilt byte-exact
// on n3 by each mechanism — first after n2 died and the view caught up,
// then with all three listed alive and n2 crashing on its first recovery
// message, then with n2 taking every recovery message and never answering
// it, so the failover ladder is what finishes the recovery.
func TestRecoverThroughEveryMechanism(t *testing.T) {
	const task = "wc/blob/0"
	blob := randomBlob(300_000)
	start := func(t *testing.T) (n1, n2, n3 *Node) {
		spec := idleSpec()
		n1 = startTestNode(t, "n1", "", spec)
		n2 = startTestNode(t, "n2", n1.Addr(), spec)
		n3 = startTestNode(t, "n3", n1.Addr(), spec)
		waitCondition(t, 5*time.Second, "n2 to see three members", func() bool {
			return len(n2.liveMembersView()) == 3
		})
		if err := n2.backend.Save(task, blob, state.Version{Timestamp: 1, Seq: 1}); err != nil {
			t.Fatalf("save: %v", err)
		}
		return n1, n2, n3
	}
	for _, mech := range []recovery.Mechanism{recovery.Star, recovery.Line, recovery.Tree} {
		t.Run(mech.String()+"/owner-dead", func(t *testing.T) {
			n1, n2, n3 := start(t)
			defer n1.Stop()
			defer n3.Stop()
			crashNode(n2)
			waitCondition(t, 5*time.Second, "n3 to see n2 dead", func() bool {
				v := n3.currentView()
				m := v.member("n2")
				return m != nil && !m.Alive
			})
			n3.backend.mech = mech
			got, err := n3.backend.Recover(task)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if !bytes.Equal(got, blob) {
				t.Fatalf("recovered %d bytes, not the saved state", len(got))
			}
		})
		t.Run(mech.String()+"/holder-stops-mid-recovery", func(t *testing.T) {
			n1, n2, n3 := start(t)
			defer n1.Stop()
			defer n3.Stop()
			var tripped atomic.Bool
			crashed := make(chan struct{})
			for _, kind := range []string{kindFetchIndex, kindLineCollect, kindTreeCollect} {
				wrapHandler(n2, kind, func(simnet.Handler) simnet.Handler {
					return func(id.ID, simnet.Message) (simnet.Message, error) {
						if tripped.CompareAndSwap(false, true) {
							go func() { crashNode(n2); close(crashed) }()
						}
						return simnet.Message{}, errors.New("process is going down")
					}
				})
			}
			n3.backend.mech = mech
			got, err := n3.backend.Recover(task)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if !tripped.Load() {
				t.Fatal("n2 was never asked — the recovery did not have to fail over")
			}
			<-crashed
			if !bytes.Equal(got, blob) {
				t.Fatalf("recovered %d bytes, not the saved state", len(got))
			}
		})
		t.Run(mech.String()+"/holder-never-replies", func(t *testing.T) {
			defer func(d time.Duration) { rpcTimeout = d }(rpcTimeout)
			rpcTimeout = 300 * time.Millisecond
			n1, n2, n3 := start(t)
			defer n1.Stop()
			defer n3.Stop()
			defer n2.Stop()
			release := make(chan struct{})
			defer close(release) // before n2.Stop, which waits for its handlers
			var asked atomic.Bool
			for _, kind := range []string{kindFetchIndex, kindLineCollect, kindTreeCollect} {
				wrapHandler(n2, kind, func(simnet.Handler) simnet.Handler {
					return func(id.ID, simnet.Message) (simnet.Message, error) {
						asked.Store(true)
						<-release
						return simnet.Message{}, errors.New("too late")
					}
				})
			}
			n3.backend.mech = mech
			got, err := n3.backend.Recover(task)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if !asked.Load() {
				t.Fatal("n2 was never asked — the recovery did not have to time out")
			}
			if !bytes.Equal(got, blob) {
				t.Fatalf("recovered %d bytes, not the saved state", len(got))
			}
		})
	}
}

// TestRecoverNeverSavedIsEmptyUnreachableIsError separates the two ways a
// placement lookup finds nothing: every member answered and none holds a
// table (the task never saved: start empty, the input log replays on
// top), and a member that may hold the only copy could not be asked (an
// error — starting empty there would silently drop the state).
func TestRecoverNeverSavedIsEmptyUnreachableIsError(t *testing.T) {
	spec := idleSpec()
	cfg := testNodeConfig("n1", "", spec)
	cfg.DeadAfter = time.Minute // no verdict here: n1's view keeps listing n2
	n1, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Stop()
	n2 := startTestNode(t, "n2", n1.Addr(), spec)

	want, err := state.NewMapStore().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := n1.backend.Recover("wc/ghost/0")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("never-saved task: got %d bytes, err %v; want the empty snapshot", len(got), err)
	}

	crashNode(n2)
	if got, err := n1.backend.Recover("wc/ghost/0"); err == nil {
		t.Fatalf("lookup with every peer unreachable returned %d bytes, want an error", len(got))
	}
}

// TestRejoinIsATypedCode pins what makes a member re-enter the cluster:
// the reply's code, not the error text. A member whose name contains
// "rejoin" hitting an unrelated seed error must not rejoin; the seed
// disowning its incarnation must read as ErrRejoin across the wire.
func TestRejoinIsATypedCode(t *testing.T) {
	spec := idleSpec()
	seed := startTestNode(t, "n1", "", spec)
	defer seed.Stop()
	m := startTestNode(t, "rejoiner", seed.Addr(), spec)
	defer m.Stop()

	_, err := call[joinResp](m, seed.Addr(), simnet.Message{Kind: kindJoin, Payload: &joinReq{
		Name: "rejoiner", Addr: m.Addr(), Incarnation: m.incarnation.Load(),
	}}, rpcTimeout)
	if err == nil || !strings.Contains(err.Error(), "rejoin") {
		t.Fatalf("duplicate join: got %v, want a refusal naming the member — test premise broken", err)
	}
	if errors.Is(err, ErrRejoin) {
		t.Fatalf("an unrelated error that mentions %q reads as ErrRejoin: %v", "rejoiner", err)
	}

	_, err = call[heartbeatResp](m, seed.Addr(), simnet.Message{Kind: kindHeartbeat, Payload: &heartbeatReq{
		Name: "rejoiner", Incarnation: m.incarnation.Load() + 1,
	}}, rpcTimeout)
	if !errors.Is(err, ErrRejoin) {
		t.Fatalf("heartbeat under an incarnation the seed does not know: got %v, want ErrRejoin", err)
	}
}

// TestRepairTickSendsNothingUntilMembershipMoves: a retained snapshot
// that stored every replica is not pushed again by repair ticks, and is
// pushed again once a join moves the view epoch.
func TestRepairTickSendsNothingUntilMembershipMoves(t *testing.T) {
	spec := idleSpec()
	n1 := startTestNode(t, "n1", "", spec)
	defer n1.Stop()
	n2 := startTestNode(t, "n2", n1.Addr(), spec)
	defer n2.Stop()
	var pushes atomic.Int64
	wrapHandler(n2, kindStoreBatch, func(next simnet.Handler) simnet.Handler {
		return func(from id.ID, msg simnet.Message) (simnet.Message, error) {
			pushes.Add(1)
			return next(from, msg)
		}
	})

	if err := n1.backend.Save("wc/blob/0", randomBlob(50_000), state.Version{Timestamp: 1, Seq: 1}); err != nil {
		t.Fatalf("save: %v", err)
	}
	saved := pushes.Load()
	if saved == 0 {
		t.Fatal("the save pushed nothing to n2")
	}
	for i := 0; i < 3; i++ {
		n1.backend.repairTick()
	}
	if got := pushes.Load(); got != saved {
		t.Fatalf("repair ticks with nothing changed pushed %d more batches", got-saved)
	}

	n3 := startTestNode(t, "n3", n1.Addr(), spec)
	defer n3.Stop()
	waitCondition(t, 5*time.Second, "re-push after the join", func() bool {
		return pushes.Load() > saved && n3.backend.mgr.ShardsHeld()["wc/blob/0"] > 0
	})
}

// heldBytes sums, over the given members, the shard bytes held at each
// retained version.
func heldBytes(nodes ...*Node) (cur, prev int) {
	for _, n := range nodes {
		c, p := n.backend.mgr.ShardBytes()
		cur, prev = cur+c, prev+p
	}
	return cur, prev
}

// TestSupersededVersionGoesWhenSuccessorIsPublished pins the release rule
// on a three-node cluster: owner and holders keep exactly one version of a
// task once its placement is published — the put that stores the table on
// a member is its publication notice — and two while a save is in flight
// or after one aborted, when the older one is the published version and
// must stay recoverable.
func TestSupersededVersionGoesWhenSuccessorIsPublished(t *testing.T) {
	const task = "wc/blob/0"
	spec := idleSpec()
	n1 := startTestNode(t, "n1", "", spec)
	defer n1.Stop()
	n2 := startTestNode(t, "n2", n1.Addr(), spec)
	defer n2.Stop()
	n3 := startTestNode(t, "n3", n1.Addr(), spec)
	defer n3.Stop()
	waitCondition(t, 5*time.Second, "n2 to see three members", func() bool {
		return len(n2.liveMembersView()) == 3
	})
	all := []*Node{n1, n2, n3}
	replicas := min(spec.Replicas, 3)
	blob := func(seq int) []byte { return randomBlob(200_000 + seq) }
	version := func(seq int) state.Version { return state.Version{Timestamp: int64(seq), Seq: uint64(seq)} }
	wantOneVersion := func(when string, seq int) {
		t.Helper()
		cur, prev := heldBytes(all...)
		if cur != replicas*len(blob(seq)) || prev != 0 {
			t.Fatalf("%s: the cluster holds %d + %d bytes, want %d replicas of save %d and nothing older",
				when, cur, prev, replicas, seq)
		}
		p, ok := n2.backend.mgr.Placement(task)
		if !ok || p.Version != version(seq) {
			t.Fatalf("%s: owner's placement is %v, want save %d", when, p.Version, seq)
		}
		for _, n := range all {
			if got, want := n.backend.mgr.ShardsHeld()[task], len(p.KeysOnNode(n.backend.overlay.self)); got != want {
				t.Fatalf("%s: %s holds %d replicas, the placement puts %d there", when, n.cfg.Name, got, want)
			}
		}
	}
	wantTwoVersions := func(when string, older, newer int, nodes ...*Node) {
		t.Helper()
		for _, n := range nodes {
			cur, prev := n.backend.mgr.ShardBytes()
			if cur == 0 || prev == 0 {
				t.Fatalf("%s: %s holds %d + %d bytes, want both save %d and save %d", when, n.cfg.Name, cur, prev, newer, older)
			}
		}
		cur, prev := heldBytes(nodes...)
		if len(nodes) == len(all) && (cur != replicas*len(blob(newer)) || prev != replicas*len(blob(older))) {
			t.Fatalf("%s: the cluster holds %d + %d bytes, want %d replicas each of saves %d and %d",
				when, cur, prev, replicas, newer, older)
		}
	}

	if err := n2.backend.Save(task, blob(1), version(1)); err != nil {
		t.Fatalf("save 1: %v", err)
	}
	wantOneVersion("after the first save", 1)

	// In flight: every push has landed, the placement has reached neither
	// the owner's own table nor n3's.
	released := make(chan struct{})
	release := sync.OnceFunc(func() { close(released) })
	defer release() // ahead of the Stops, which wait for the handlers
	holdFirstPut := func(n *Node) <-chan struct{} {
		entered := make(chan struct{})
		var first atomic.Bool
		wrapHandler(n, kindKVPut, func(next simnet.Handler) simnet.Handler {
			return func(from id.ID, msg simnet.Message) (simnet.Message, error) {
				if first.CompareAndSwap(false, true) {
					close(entered)
					<-released
				}
				return next(from, msg)
			}
		})
		return entered
	}
	atOwner, atHolder := holdFirstPut(n2), holdFirstPut(n3)
	done := make(chan error, 1)
	go func() { done <- n2.backend.Save(task, blob(2), version(2)) }()
	<-atOwner
	<-atHolder
	wantTwoVersions("with save 2 in flight", 1, 2, n2, n3)
	release()
	if err := <-done; err != nil {
		t.Fatalf("save 2: %v", err)
	}
	wantOneVersion("after save 2 was published", 2)

	// Aborted: a node on its way down pushes but publishes nothing.
	n2.backend.overlay.closed.Store(true)
	if err := n2.backend.Save(task, blob(3), version(3)); err == nil {
		t.Fatal("save 3 published from a closed overlay")
	}
	wantTwoVersions("after save 3 aborted", 2, 3, all...)
	// A prev that stays up is how /metrics shows a publication that never
	// arrived.
	_, prev := n3.backend.mgr.ShardBytes()
	wantScrape(t, n3, fmt.Sprintf(`sr3_recovery_held_bytes{node="n3",version="prev"} %d`, prev))
	if got, err := n3.backend.Recover(task); err != nil || !bytes.Equal(got, blob(2)) {
		t.Fatalf("recover after an aborted save: %d bytes, err %v; want save 2, the published one", len(got), err)
	}
	n2.backend.overlay.closed.Store(false)
	if err := n2.backend.Save(task, blob(4), version(4)); err != nil {
		t.Fatalf("save 4: %v", err)
	}
	wantOneVersion("after save 4 was published", 4)
	cur, _ := n2.backend.mgr.ShardBytes()
	wantScrape(t, n2,
		fmt.Sprintf(`sr3_recovery_held_bytes{node="n2",version="cur"} %d`, cur),
		`sr3_recovery_held_bytes{node="n2",version="prev"} 0`,
		fmt.Sprintf(`sr3_cluster_retained_snapshot_bytes{node="n2"} %d`, len(blob(4))))
}

// wantScrape fails unless n's /metrics exposition has every given line.
func wantScrape(t *testing.T, n *Node, lines ...string) {
	t.Helper()
	var buf bytes.Buffer
	if err := (sampledMetrics{n}).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Fatalf("%s's /metrics lacks %q", n.cfg.Name, line)
		}
	}
}
