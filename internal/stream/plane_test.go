package stream

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sr3/internal/leakcheck"
	"sr3/internal/metrics"
	"sr3/internal/state"
)

func seqRun(seqs ...int) []Tuple {
	run := make([]Tuple, len(seqs))
	for i, s := range seqs {
		run[i] = Tuple{Values: []any{s}}
	}
	return run
}

// TestQueueShedAccountingCountsTuples: when a run is shed — its own
// tuples, or older ones evicted for it — the queue reports the debit per
// TUPLE, never per push.
func TestQueueShedAccountingCountsTuples(t *testing.T) {
	q := newTaskQueue(4, QueueShedOldest, 0)
	if res := q.pushN(seqRun(0, 1, 2), ClassIngest, false); res.shed != 0 {
		t.Fatalf("first push shed %d", res.shed)
	}
	if res := q.pushN(seqRun(3), ClassIngest, false); res.shed != 0 {
		t.Fatalf("second push shed %d", res.shed)
	}
	// Full queue: a run of 2 under shed-oldest evicts the 2 oldest tuples.
	if res := q.pushN(seqRun(4, 5), ClassIngest, false); res.shed != 2 {
		t.Fatalf("third push shed %d, want 2 (one per tuple it displaced)", res.shed)
	}
	for _, want := range []int{2, 3, 4, 5} {
		if got := takeSeq(q); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
	}
	// Replay-full queue: the incoming ingest run is shed whole, and its
	// own tuple count is the debit.
	qr := newTaskQueue(1, QueueShedOldest, 0)
	qr.pushN(seqRun(0), ClassReplay, false)
	if res := qr.pushN(seqRun(1, 2, 3, 4), ClassIngest, false); res.shed != 4 {
		t.Fatalf("ingest run into replay-full queue shed %d, want 4", res.shed)
	}
	// A run longer than the queue under shed-oldest ends up displacing
	// its own head: every tuple but the last `capacity` is one debit.
	ql := newTaskQueue(2, QueueShedOldest, 0)
	if res := ql.pushN(seqRun(0, 1, 2, 3, 4), ClassIngest, false); res.shed != 3 || res.high != 2 {
		t.Fatalf("long run: shed %d high %d, want 3 and 2", res.shed, res.high)
	}
}

// TestBatchedLedgerCountsTuplesNotBatches drives a runtime into shedding
// and cross-checks the runtime ledger against ground truth: offered must
// equal the tuples pumped (so offered is per tuple, not per push),
// offered = admitted + shed exactly, and the stateful bolt's record must
// equal admitted exactly (shed tuples never reach Execute; admitted ones
// execute once each).
func TestBatchedLedgerCountsTuplesNotBatches(t *testing.T) {
	defer leakcheck.Verify(t)()
	const n = 4000
	reg := metrics.NewRegistry()
	bolt := newTotalBolt(10 * time.Microsecond)
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{Values: []any{i}}
	}
	topo := NewTopology("bl")
	if err := topo.AddSpout("src", newSliceSpout(tuples)); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("count", bolt, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{
		Backend:      NewMemoryBackend(),
		ChannelDepth: 8,
		QueuePolicy:  QueueShedOldest,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	ov := rt.Overload()
	if ov.Offered != n {
		t.Fatalf("offered = %d, want %d (must count tuples, not pushes)", ov.Offered, n)
	}
	if ov.Offered != ov.Admitted+ov.Shed {
		t.Fatalf("ledger broken: %d != %d + %d", ov.Offered, ov.Admitted, ov.Shed)
	}
	if ov.Shed == 0 {
		t.Fatal("slow bolt behind an 8-deep queue at full pump rate shed nothing — scenario lost its teeth")
	}
	if got := bolt.total(); got != ov.Admitted {
		t.Fatalf("executed = %d, admitted = %d (exactly-once over admitted broken)", got, ov.Admitted)
	}
	for _, ts := range ov.Tasks {
		if ts.QueueHighWater > ts.QueueCap {
			t.Fatalf("%s: high water %d > cap %d", ts.Key, ts.QueueHighWater, ts.QueueCap)
		}
	}
	// The metrics mirror agrees with the atomics ledger.
	if got := reg.Counter("sr3_stream_shed_total").Value(); got != ov.Shed {
		t.Fatalf("sr3_stream_shed_total = %d, want %d", got, ov.Shed)
	}
	if got := reg.Counter("sr3_stream_tuples_in_total").Value(); got != n {
		t.Fatalf("sr3_stream_tuples_in_total = %d, want %d", got, n)
	}
}

// TestBatchedMatchesPerTupleSemantics runs the identical wordcount three
// ways — the bolt called one tuple at a time with no runtime at all (the
// per-tuple reference), through a runtime fed by a spout (runs of
// whatever is queued), and through a runtime fed one 1000-tuple ingress
// frame (full runs) — and requires identical final state: run-granular
// delivery must be invisible to results.
func TestBatchedMatchesPerTupleSemantics(t *testing.T) {
	defer leakcheck.Verify(t)()
	words := []string{"a", "b", "c", "d", "e"}
	tuples := make([]Tuple, 1000)
	for i := range tuples {
		tuples[i] = Tuple{Values: []any{words[i%len(words)]}, Ts: int64(i)}
	}
	countsOf := func(counter *countBolt) map[string]int64 {
		counts := make(map[string]int64)
		for _, k := range counter.store.Keys() {
			v, _ := counter.store.Get(k)
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				t.Fatalf("count %q: %v", k, err)
			}
			counts[k] = n
		}
		return counts
	}
	reference := func() map[string]int64 {
		counter := newCountBolt()
		for _, tuple := range tuples {
			if err := counter.Execute(tuple, func(Tuple) {}); err != nil {
				t.Fatal(err)
			}
		}
		return countsOf(counter)
	}
	run := func(ingress bool) map[string]int64 {
		topo := NewTopology("eq")
		var err error
		if ingress {
			err = topo.AddSource("src")
		} else {
			err = topo.AddSpout("src", newSliceSpout(tuples))
		}
		if err != nil {
			t.Fatal(err)
		}
		counter := newCountBolt()
		if err := topo.AddBolt("count", counter, 2).Fields("src", 0).Err(); err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(topo, Config{Backend: NewMemoryBackend()})
		if err != nil {
			t.Fatal(err)
		}
		rt.Start()
		if ingress {
			if err := rt.InjectBatch("src", "count", append([]Tuple(nil), tuples...), ClassIngest); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Wait(); err != nil {
			t.Fatal(err)
		}
		return countsOf(counter)
	}
	perTuple := reference()
	if len(perTuple) != len(words) {
		t.Fatalf("per-tuple counts = %v", perTuple)
	}
	for name, got := range map[string]map[string]int64{"spout": run(false), "ingress": run(true)} {
		for w, c := range perTuple {
			if got[w] != c {
				t.Fatalf("%s: word %q: runtime=%d per-tuple=%d", name, w, got[w], c)
			}
		}
	}
}

// TestNothingWaitsForCompany: one tuple into an idle three-stage runtime
// reaches the sink, and then a second one does, with the stream still
// open and nothing else arriving — output leaves an executor when its
// run ends, not when a buffer fills. No timer can be what delivered
// them: Start launches the executors and the pump and nothing else, and
// the package's non-test source creates no ticker or timer at all.
func TestNothingWaitsForCompany(t *testing.T) {
	defer leakcheck.Verify(t)()
	sp := newChanSpout()
	s := &sink{}
	pass := BoltFunc(func(t Tuple, emit Emit) error { emit(t); return nil })
	topo := NewTopology("lg")
	if err := topo.AddSpout("src", sp); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("a", pass, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("b", pass, 1).Global("a").Err(); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("sink", s, 1).Global("b").Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	rt.Start()
	if started := runtime.NumGoroutine() - before; started > 4 {
		t.Fatalf("Start launched %d goroutines, want 4 (three executors and one pump)", started)
	}
	for want := 1; want <= 2; want++ {
		sp.push(Tuple{Values: []any{want}})
		deadline := time.Now().Add(5 * time.Second)
		for len(s.tuples()) < want {
			if time.Now().After(deadline) {
				t.Fatalf("tuple %d never reached the sink: it is waiting for company", want)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	sp.close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	timers := regexp.MustCompile(`time\.(NewTicker|NewTimer|After|AfterFunc|Tick)\b`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := timers.Find(src); m != nil {
			t.Errorf("%s uses %s: nothing in the tuple plane may run on a timer", f, m)
		}
	}
}

// offeredByTask reads each task's offered count, in task order.
func offeredByTask(rt *Runtime) []int64 {
	var out []int64
	for _, ts := range rt.Overload().Tasks {
		out = append(out, ts.Offered)
	}
	return out
}

// TestInjectBatchFieldsGroupingMatchesLocalEmission: an injected frame
// is partitioned by the edge's grouping exactly as local emissions are —
// at parallel 4, every key lands on the task a local emission of that key
// reaches — and a mixed frame reaches each task in one share.
func TestInjectBatchFieldsGroupingMatchesLocalEmission(t *testing.T) {
	defer leakcheck.Verify(t)()
	const keys, tasks = 64, 4
	sp := newChanSpout()
	topo := NewTopology("inj")
	if err := topo.AddSpout("local", sp); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSource("remote"); err != nil {
		t.Fatal(err)
	}
	drop := BoltFunc(func(Tuple, Emit) error { return nil })
	if err := topo.AddBolt("sink", drop, tasks).Fields("local", 0).Fields("remote", 0).Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	// moved offers tuples through feed and returns which single task's
	// offered count rose by n.
	moved := func(n int64, feed func()) int {
		t.Helper()
		before := offeredByTask(rt)
		feed()
		deadline := time.Now().Add(5 * time.Second)
		for {
			task, rose := -1, int64(0)
			for i, off := range offeredByTask(rt) {
				if d := off - before[i]; d > 0 {
					task, rose = i, rose+d
				}
			}
			if rose == n {
				return task
			}
			if rose > n || time.Now().After(deadline) {
				t.Fatalf("offered rose by %d, want %d", rose, n)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	placement := make([]int, keys)
	perTask := make([]int64, tasks)
	var mixed []Tuple
	for k := 0; k < keys; k++ {
		key := "k" + strconv.Itoa(k)
		placement[k] = moved(1, func() { sp.push(Tuple{Values: []any{key}}) })
		frame := []Tuple{{Values: []any{key}}, {Values: []any{key}}, {Values: []any{key}}}
		got := moved(3, func() {
			if err := rt.InjectBatch("remote", "sink", frame, ClassIngest); err != nil {
				t.Fatal(err)
			}
		})
		if got != placement[k] {
			t.Fatalf("key %q: local emission reaches task %d, injected frame task %d", key, placement[k], got)
		}
		perTask[placement[k]] += 2
		mixed = append(mixed, Tuple{Values: []any{key}}, Tuple{Values: []any{key}})
	}
	before := offeredByTask(rt)
	if err := rt.InjectBatch("remote", "sink", mixed, ClassIngest); err != nil {
		t.Fatal(err)
	}
	for i, off := range offeredByTask(rt) {
		if perTask[i] == 0 {
			t.Fatalf("no key hashes to task %d: the test lost its spread", i)
		}
		if got := off - before[i]; got != perTask[i] {
			t.Fatalf("mixed frame: task %d was offered %d tuples, its keys account for %d", i, got, perTask[i])
		}
	}
	sp.close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if mixed[0].Stream != "remote" {
		t.Fatalf("injected tuple's Stream = %q, want the source component", mixed[0].Stream)
	}
}

// TestInjectBatchReplayNeverShed: a replay-class frame larger than the
// queue is admitted whole under the shed policy and in degraded mode,
// displacing queued ingest where it must, while an ingest-class frame
// into the same queues is shed — and offered = admitted + shed holds per
// task and runtime-wide, with the queue never past its capacity.
func TestInjectBatchReplayNeverShed(t *testing.T) {
	for _, tc := range []struct {
		name     string
		policy   QueuePolicy
		degraded bool
	}{
		{"shed-oldest", QueueShedOldest, false},
		{"degraded", QueueBlock, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Verify(t)()
			const depth, frame = 8, 50
			gate := make(chan struct{})
			var replays, ingests atomic.Int64
			bolt := BoltFunc(func(tu Tuple, _ Emit) error {
				<-gate
				if tu.Values[0].(int) >= 1000 {
					replays.Add(1)
				} else {
					ingests.Add(1)
				}
				return nil
			})
			topo := NewTopology("rp")
			if err := topo.AddSource("src"); err != nil {
				t.Fatal(err)
			}
			if err := topo.AddBolt("b", bolt, 1).Global("src").Err(); err != nil {
				t.Fatal(err)
			}
			rt, err := NewRuntime(topo, Config{ChannelDepth: depth, QueuePolicy: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			rt.Start()
			if tc.degraded {
				rt.EnterDegraded("test")
			}
			mk := func(base int) []Tuple {
				run := make([]Tuple, frame)
				for i := range run {
					run[i] = Tuple{Values: []any{base + i}}
				}
				return run
			}
			// Ingest first, against a gated bolt: the queue fills and the
			// rest of the frame is shed (never blocked: these are the shed
			// policies, and degraded mode sheds past the watermark).
			if err := rt.InjectBatch("src", "b", mk(0), ClassIngest); err != nil {
				t.Fatal(err)
			}
			if shed := rt.Overload().Shed; shed == 0 {
				t.Fatal("ingest frame larger than the queue shed nothing")
			}
			// Replay blocks or evicts, so it needs the consumer running.
			done := make(chan error, 1)
			go func() { done <- rt.InjectBatch("src", "b", mk(1000), ClassReplay) }()
			close(gate)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if tc.degraded {
				rt.ExitDegraded()
			}
			if err := rt.Wait(); err != nil {
				t.Fatal(err)
			}
			if got := replays.Load(); got != frame {
				t.Fatalf("%d of %d replay tuples executed: replay was shed", got, frame)
			}
			ov := rt.Overload()
			task := ov.Tasks[0]
			if ov.Offered != 2*frame || ov.Offered != ov.Admitted+ov.Shed ||
				task.Offered != ov.Offered || task.Offered != task.Admitted+task.Shed {
				t.Fatalf("ledger: runtime %d = %d + %d, task %d = %d + %d, want offered %d both",
					ov.Offered, ov.Admitted, ov.Shed, task.Offered, task.Admitted, task.Shed, 2*frame)
			}
			if got := replays.Load() + ingests.Load(); got != ov.Admitted {
				t.Fatalf("executed %d, admitted %d", got, ov.Admitted)
			}
			if task.QueueHighWater > task.QueueCap || task.QueueCap != depth {
				t.Fatalf("queue high water %d, cap %d, want <= %d", task.QueueHighWater, task.QueueCap, depth)
			}
		})
	}
}

// TestInjectBatchBlocksForBackpressure: under QueueBlock a frame larger
// than the queue holds its caller until the consumer has made room for
// all of it — admitted in pieces, nothing shed, the queue never past its
// capacity — and the wait shows up as emit-blocked time on the task.
func TestInjectBatchBlocksForBackpressure(t *testing.T) {
	defer leakcheck.Verify(t)()
	const depth, frame = 8, 100
	reg := metrics.NewRegistry()
	gate := make(chan struct{})
	bolt := BoltFunc(func(Tuple, Emit) error { <-gate; return nil })
	topo := NewTopology("bp")
	if err := topo.AddSource("src"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("b", bolt, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{ChannelDepth: depth, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	done := make(chan error, 1)
	go func() { done <- rt.InjectBatch("src", "b", seqRun(make([]int, frame)...), ClassIngest) }()
	select {
	case err := <-done:
		t.Fatalf("a %d-tuple frame into a gated %d-deep queue returned (%v)", frame, depth, err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	ov := rt.Overload()
	if ov.Offered != frame || ov.Shed != 0 || ov.Tasks[0].QueueHighWater > depth {
		t.Fatalf("offered %d shed %d high water %d, want %d, 0, <= %d",
			ov.Offered, ov.Shed, ov.Tasks[0].QueueHighWater, frame, depth)
	}
	if got, _ := rt.Handled("b", 0); got != frame {
		t.Fatalf("handled %d, want %d", got, frame)
	}
	if reg.Counter("sr3_stream_task_bp/b/0_emit_blocked_ns_total").Value() <= 0 ||
		reg.Histogram("sr3_stream_task_bp/b/0_emit_block_wait_ns").Count() != 1 {
		t.Fatal("the blocked frame left no emit-blocked time, or more than one wait sample")
	}
	if got := reg.Gauge("sr3_stream_task_bp/b/0_queue_high_water").Value(); got > depth {
		t.Fatalf("queue_high_water gauge = %d tuples, cap %d", got, depth)
	}
}

func TestInjectBatchUnknownEndpoints(t *testing.T) {
	defer leakcheck.Verify(t)()
	topo := NewTopology("unk")
	if err := topo.AddSource("src"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("b", &sink{}, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if err := rt.InjectBatch("nope", "b", seqRun(1), ClassIngest); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("unknown from: %v", err)
	}
	if err := rt.InjectBatch("src", "nope", seqRun(1), ClassIngest); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown toBolt: %v", err)
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Overload().Offered; got != 0 {
		t.Fatalf("refused injections offered %d tuples", got)
	}
}

// runCounter is a BatchBolt that passes its input on and counts its
// ExecuteBatch calls, tuples and class changes. With one class and no
// periodic save, one call is one run.
type runCounter struct {
	calls, tuples atomic.Int64
	classes       map[TrafficClass]int // executor goroutine only
}

func (r *runCounter) Execute(t Tuple, emit Emit) error {
	return r.ExecuteBatch([]Tuple{t}, ClassIngest, emit)
}

func (r *runCounter) ExecuteBatch(tuples []Tuple, class TrafficClass, emit Emit) error {
	r.calls.Add(1)
	r.tuples.Add(int64(len(tuples)))
	if r.classes != nil {
		r.classes[class] += len(tuples)
	}
	for _, t := range tuples {
		emit(t)
	}
	return nil
}

// countClock swaps the plane's clock for one that counts its reads.
func countClock(t *testing.T) *atomic.Int64 {
	t.Helper()
	var reads atomic.Int64
	real := nowNano
	nowNano = func() int64 { reads.Add(1); return real() }
	t.Cleanup(func() { nowNano = real })
	return &reads
}

// TestExecutorClockBudget pins the clock budget of the plane with
// metrics on: 10 000 tuples through ingress → bolt → bolt cost two clock
// reads per run (the run's proc_ns) and two per push that blocked (its
// emit_blocked_ns) — nothing per tuple.
func TestExecutorClockBudget(t *testing.T) {
	defer leakcheck.Verify(t)()
	const n, frame = 10000, 500
	reads := countClock(t)
	reg := metrics.NewRegistry()
	a, b := &runCounter{}, &runCounter{}
	topo := NewTopology("clk")
	if err := topo.AddSource("src"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("a", a, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("b", b, 1).Global("a").Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	for off := 0; off < n; off += frame {
		if err := rt.InjectBatch("src", "a", seqRun(make([]int, frame)...), ClassIngest); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if a.tuples.Load() != n || b.tuples.Load() != n {
		t.Fatalf("a saw %d tuples, b %d, want %d each", a.tuples.Load(), b.tuples.Load(), n)
	}
	runs := a.calls.Load() + b.calls.Load()
	blocked := reg.Histogram("sr3_stream_emit_block_wait_ns").Count()
	got := reads.Load()
	t.Logf("%d tuples x 2 tasks: %d runs, %d blocked pushes, %d clock reads", n, runs, blocked, got)
	if budget := 2*runs + 2*blocked; got > budget {
		t.Fatalf("%d clock reads, budget 2 x (%d runs + %d blocked pushes) = %d", got, runs, blocked, budget)
	}
	// Not vacuous: 500-tuple frames into 256-deep queues make long runs,
	// so the budget is far under one read per tuple, let alone the four
	// per tuple and task of a per-tuple plane.
	if got > n/2 {
		t.Fatalf("%d clock reads for %d tuples: the reads scale with tuples", got, n)
	}
	if c := reg.Histogram("sr3_stream_proc_ns").Count(); c != 2*n {
		t.Fatalf("proc_ns count = %d, want %d (one observation per tuple and task)", c, 2*n)
	}
}

// TestExecuteBatchOneClassPerCall: a run that mixes classes reaches a
// BatchBolt split where the class changes, each call's emissions inherit
// its class, and nothing is reordered.
func TestExecuteBatchOneClassPerCall(t *testing.T) {
	defer leakcheck.Verify(t)()
	gate := make(chan struct{})
	hold := BoltFunc(func(t Tuple, emit Emit) error { <-gate; emit(t); return nil })
	bb := &runCounter{classes: map[TrafficClass]int{}}
	s := &sink{}
	topo := NewTopology("cls")
	if err := topo.AddSource("src"); err != nil {
		t.Fatal(err)
	}
	// hold parks on the first tuple so the rest — both classes — pile up
	// in its queue and come out as one run; its emissions carry each
	// tuple's class to bb in one flush per class.
	if err := topo.AddBolt("hold", hold, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("bb", bb, 1).Global("hold").Err(); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("sink", s, 1).Global("bb").Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	for _, part := range []struct {
		class TrafficClass
		seqs  []int
	}{{ClassIngest, []int{0, 1, 2}}, {ClassReplay, []int{3, 4}}, {ClassIngest, []int{5}}} {
		if err := rt.InjectBatch("src", "hold", seqRun(part.seqs...), part.class); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if bb.classes[ClassIngest] != 4 || bb.classes[ClassReplay] != 2 {
		t.Fatalf("bb saw %v, want 4 ingest and 2 replay tuples", bb.classes)
	}
	got := s.tuples()
	if len(got) != 6 {
		t.Fatalf("sink got %d tuples, want 6", len(got))
	}
	for i, tu := range got {
		if tu.Values[0].(int) != i {
			t.Fatalf("sink tuple %d carries seq %v: reordered across a class change", i, tu.Values[0])
		}
	}
}

// saveProbeBackend calls check on every Save, before storing.
type saveProbeBackend struct {
	*MemoryBackend
	check func()
}

func (b *saveProbeBackend) Save(key string, view state.View, v state.Version) error {
	b.check()
	return b.MemoryBackend.Save(key, view, v)
}

// TestSaveFlushesOutputFirst: with SaveEveryTuples hit in the middle of
// a run, every emission of the tuples before the boundary is visible
// downstream before Backend.Save is entered — no finished output waits
// behind a save, and the emit-before-snapshot order of a tuple-at-a-time
// executor is kept.
func TestSaveFlushesOutputFirst(t *testing.T) {
	defer leakcheck.Verify(t)()
	const saveEvery, n = 5, 12
	s := &sink{}
	var saves int
	var late []string
	backend := &saveProbeBackend{MemoryBackend: NewMemoryBackend(), check: func() {
		saves++
		want := saves * saveEvery
		// The sink is its own executor: give it a moment to take what was
		// pushed. Output still buffered in the saving executor can never
		// arrive while it sits in Save.
		deadline := time.Now().Add(2 * time.Second)
		for len(s.tuples()) < want && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if got := len(s.tuples()); got < want {
			late = append(late, fmt.Sprintf("save %d entered with %d of %d emissions downstream", saves, got, want))
		}
	}}
	topo := NewTopology("sf")
	if err := topo.AddSource("src"); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("count", newCountBolt(), 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("sink", s, 1).Global("count").Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{Backend: backend, SaveEveryTuples: saveEvery})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	// One frame, admitted under one lock: the executor takes all 12 as one
	// run, and both save boundaries fall inside it.
	run := make([]Tuple, n)
	for i := range run {
		run[i] = Tuple{Values: []any{"w"}}
	}
	if err := rt.InjectBatch("src", "count", run, ClassIngest); err != nil {
		t.Fatal(err)
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if saves != n/saveEvery {
		t.Fatalf("%d saves, want %d", saves, n/saveEvery)
	}
	for _, msg := range late {
		t.Error(msg)
	}
	if got := len(s.tuples()); got != n {
		t.Fatalf("sink got %d tuples, want %d", got, n)
	}
}

// TestHashFieldFastPathsMatchFmt pins old bucket == new bucket for every
// type hashField hashes in place: the bytes FNV-1a sees must be the
// bytes fmt's %v prints, or task placement — and every keyed state
// restored under it — would move.
func TestHashFieldFastPathsMatchFmt(t *testing.T) {
	viaFmt := func(v any, buckets int) int {
		h := fnv.New32a()
		fmt.Fprintf(h, "%v", v)
		return int(h.Sum32() % uint32(buckets))
	}
	values := []any{
		"", "a", "key-17", "héllo wörld", strings.Repeat("x", 300), "%v", "\x00\xff",
		0, 1, -1, 42, 1 << 40, -(1 << 62), int(^uint(0) >> 1), -int(^uint(0)>>1) - 1,
		int64(0), int64(-7), int64(1) << 62, int64(-1) << 63,
		uint64(0), uint64(9), ^uint64(0),
		// Everything else still goes through fmt.
		nil, 3.25, true, int32(-5), uint8(200), []byte("ab"), struct{ A, B int }{1, 2},
	}
	for _, v := range values {
		for _, buckets := range []int{2, 3, 4, 7, 16, 1000} {
			if got, want := hashField(v, buckets), viaFmt(v, buckets); got != want {
				t.Errorf("hashField(%T %v, %d) = %d, fmt path gives %d", v, v, buckets, got, want)
			}
		}
		if got := hashField(v, 1); got != 0 {
			t.Errorf("hashField(%v, 1) = %d, want 0", v, got)
		}
	}
}
