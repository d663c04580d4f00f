package stream

import (
	"sync"
	"testing"
	"time"

	"sr3/internal/leakcheck"
)

// spinTotalBolt is totalBolt with a busy-wait delay: container timer
// slack turns microsecond sleeps into milliseconds, and the stress test
// needs a precise per-tuple cost to overload a bounded queue without
// stretching the test into seconds.
type spinTotalBolt struct {
	*totalBolt
	spin time.Duration
}

func (b *spinTotalBolt) Execute(t Tuple, emit Emit) error {
	for start := time.Now(); time.Since(start) < b.spin; {
	}
	return b.totalBolt.Execute(t, emit)
}

// TestBatchedCrashMidStreamExactlyOnce is the -race stress test for the
// tuple plane: sustained ingest from a concurrent feeder, a save + crash
// + recovery in the middle of the stream, and then the audits —
// exactly-once over admitted tuples (recovered state counted each
// admitted tuple exactly once) and the exact offered = admitted + shed
// ledger, with runs crossing every queue. Run under the blocking policy (no shedding: everything must
// come through) and under shed-oldest at an 8-deep queue (heavy
// shedding: the ledger must still balance per tuple).
func TestBatchedCrashMidStreamExactlyOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy QueuePolicy
		depth  int
		spin   time.Duration
	}{
		{"block", QueueBlock, 64, 2 * time.Microsecond},
		{"shed-oldest", QueueShedOldest, 8, 20 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Verify(t)()
			const n = 3000
			backend := NewMemoryBackend()
			bolt := &spinTotalBolt{totalBolt: newTotalBolt(0), spin: tc.spin}
			sink := newSeqSetSink()

			sp := newChanSpout()
			topo := NewTopology("bstress")
			if err := topo.AddSpout("src", sp); err != nil {
				t.Fatal(err)
			}
			if err := topo.AddBolt("count", bolt, 1).Global("src").Err(); err != nil {
				t.Fatal(err)
			}
			if err := topo.AddBolt("sink", sink, 1).Global("count").Err(); err != nil {
				t.Fatal(err)
			}
			rt, err := NewRuntime(topo, Config{
				Backend:      backend,
				ChannelDepth: tc.depth,
				QueuePolicy:  tc.policy,
			})
			if err != nil {
				t.Fatal(err)
			}
			rt.Start()

			// Feeder goroutine streams the whole sequence while the main
			// goroutine saves, crashes and recovers the stateful task
			// mid-stream — control and data race through the two-lane
			// queues concurrently, with frames in flight everywhere.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					sp.push(Tuple{Values: []any{i}})
					if i%256 == 255 {
						// Light pacing so the stream outlives the control
						// ops below — the crash must land mid-stream.
						time.Sleep(time.Millisecond)
					}
				}
				sp.close()
			}()

			deadline := time.Now().Add(10 * time.Second)
			// Early enough to land mid-stream even when an 8-tuple queue
			// sheds most of it.
			for bolt.total() < 20 {
				if time.Now().After(deadline) {
					t.Fatalf("bolt never reached 20 executions (total=%d)", bolt.total())
				}
				time.Sleep(time.Millisecond)
			}
			if err := rt.Save("count", 0); err != nil {
				t.Fatal(err)
			}
			if err := rt.Kill("count", 0); err != nil {
				t.Fatal(err)
			}
			// Ingest keeps arriving while dead: frames are logged for
			// replay, never executed live.
			time.Sleep(2 * time.Millisecond)
			if err := rt.RecoverTask("count", 0); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if err := rt.Wait(); err != nil {
				t.Fatal(err)
			}

			ov := rt.Overload()
			if ov.Offered != ov.Admitted+ov.Shed {
				t.Fatalf("runtime ledger broken: %d != %d + %d", ov.Offered, ov.Admitted, ov.Shed)
			}
			var countStats, sinkStats TaskOverloadStats
			for _, ts := range ov.Tasks {
				if ts.Offered != ts.Admitted+ts.Shed {
					t.Fatalf("%s ledger broken: %d != %d + %d", ts.Key, ts.Offered, ts.Admitted, ts.Shed)
				}
				if ts.QueueHighWater > ts.QueueCap {
					t.Fatalf("%s: high water %d > cap %d", ts.Key, ts.QueueHighWater, ts.QueueCap)
				}
				switch ts.Key {
				case "bstress/count/0":
					countStats = ts
				case "bstress/sink/0":
					sinkStats = ts
				}
			}
			if countStats.Offered != n {
				t.Fatalf("count offered = %d, want %d (offered must count tuples, not frames)", countStats.Offered, n)
			}
			// Exactly-once over admitted: after rollback + replay, the
			// recovered state reflects each admitted tuple exactly once.
			if got := bolt.total(); got != countStats.Admitted {
				t.Fatalf("state total = %d, admitted = %d", got, countStats.Admitted)
			}
			// The sink's distinct-seq count brackets admitted minus its
			// own sheds (a shed sink frame may hold replay duplicates, so
			// only bounds are exact there).
			distinct := int64(sink.distinct())
			if distinct > countStats.Admitted || distinct < countStats.Admitted-sinkStats.Shed {
				t.Fatalf("sink distinct = %d outside [%d, %d]",
					distinct, countStats.Admitted-sinkStats.Shed, countStats.Admitted)
			}
			if tc.policy == QueueBlock {
				if ov.Shed != 0 {
					t.Fatalf("blocking policy shed %d tuples", ov.Shed)
				}
				if got := bolt.total(); got != n {
					t.Fatalf("state total = %d, want %d (blocking loses nothing)", got, n)
				}
				if distinct != n {
					t.Fatalf("sink distinct = %d, want %d", distinct, n)
				}
			} else if ov.Shed == 0 {
				t.Fatal("shed-oldest at depth 8 under full-rate ingest shed nothing — scenario lost its teeth")
			}
		})
	}
}
