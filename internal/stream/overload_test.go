package stream

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sr3/internal/leakcheck"
	"sr3/internal/metrics"
	"sr3/internal/obs"
	"sr3/internal/state"
)

// offer pushes one data tuple carrying seq and reports how many tuples
// the queue shed to settle it (the offered one or an evicted older one).
func offer(q *taskQueue, seq int, class TrafficClass, degraded bool) int {
	return q.pushN([]Tuple{{Values: []any{seq}}}, class, degraded).shed
}

// take pops the queue's next item the way the executor does, one entry
// at a time: a control envelope, or (kind ctlRun) one data tuple.
func take(q *taskQueue) (envelope, Tuple, TrafficClass) {
	var t [1]Tuple
	var c [1]TrafficClass
	env, _ := q.drain(t[:], c[:])
	return env, t[0], c[0]
}

func takeSeq(q *taskQueue) int {
	_, tuple, _ := take(q)
	return tuple.Values[0].(int)
}

func TestTaskQueueShedOldestKeepsNewest(t *testing.T) {
	q := newTaskQueue(4, QueueShedOldest, 0)
	sheds := 0
	for i := 0; i < 6; i++ {
		sheds += offer(q, i, ClassIngest, false)
	}
	if sheds != 2 {
		t.Fatalf("sheds = %d, want 2", sheds)
	}
	if q.depth() != 4 {
		t.Fatalf("depth = %d, want 4", q.depth())
	}
	// The two oldest (0, 1) were evicted; 2..5 remain in order.
	for want := 2; want <= 5; want++ {
		if got := takeSeq(q); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
	}
}

func TestTaskQueueShedPriorityDropsIncomingIngest(t *testing.T) {
	q := newTaskQueue(2, QueueShedPriority, 0)
	offer(q, 0, ClassIngest, false)
	offer(q, 1, ClassIngest, false)
	if shed := offer(q, 2, ClassIngest, false); shed != 1 {
		t.Fatalf("full queue: incoming ingest shed %d, want 1 (itself)", shed)
	}
	// Incoming replay evicts the oldest queued ingest tuple instead.
	if shed := offer(q, 3, ClassReplay, false); shed != 1 {
		t.Fatal("incoming replay did not displace queued ingest")
	}
	if got := takeSeq(q); got != 1 {
		t.Fatalf("head = %d, want 1 (0 evicted, 2 refused)", got)
	}
	if _, tuple, class := take(q); class != ClassReplay || tuple.Values[0].(int) != 3 {
		t.Fatal("replay tuple lost")
	}
}

func TestTaskQueueReplayNeverShed(t *testing.T) {
	q := newTaskQueue(2, QueueShedOldest, 0)
	offer(q, 0, ClassReplay, false)
	offer(q, 1, ClassReplay, false)
	// Full of replay: incoming ingest is the one shed.
	if shed := offer(q, 2, ClassIngest, false); shed != 1 {
		t.Fatal("ingest push into replay-full queue was not shed")
	}
	// Incoming replay blocks until the consumer frees a slot.
	admitted := make(chan int)
	go func() { admitted <- offer(q, 3, ClassReplay, false) }()
	select {
	case <-admitted:
		t.Fatal("replay push did not block on a replay-full queue")
	case <-time.After(20 * time.Millisecond):
	}
	take(q)
	select {
	case shed := <-admitted:
		if shed != 0 {
			t.Fatalf("blocked replay push shed %d tuples", shed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("replay push never admitted after a slot freed")
	}
	if a, b := takeSeq(q), takeSeq(q); a != 1 || b != 3 {
		t.Fatalf("queue held %d, %d, want the replay tuples 1, 3", a, b)
	}
}

func TestTaskQueueControlLaneFirst(t *testing.T) {
	q := newTaskQueue(4, QueueBlock, 0)
	offer(q, 0, ClassIngest, false)
	offer(q, 1, ClassIngest, false)
	q.pushCtl(envelope{kind: ctlKill})
	if env, _, _ := take(q); env.kind != ctlKill {
		t.Fatalf("pop = kind %d, want control envelope first", env.kind)
	}
	if got := takeSeq(q); got != 0 {
		t.Fatal("data order disturbed by control lane")
	}
}

func TestTaskQueueDegradedWatermark(t *testing.T) {
	q := newTaskQueue(8, QueueBlock, 4)
	for i := 0; i < 4; i++ {
		if shed := offer(q, i, ClassIngest, true); shed != 0 {
			t.Fatalf("push %d below watermark not admitted", i)
		}
	}
	// At the watermark: degraded mode sheds new ingest even though the
	// queue has headroom...
	if shed := offer(q, 4, ClassIngest, true); shed != 1 {
		t.Fatal("degraded ingest above watermark not shed")
	}
	// ...but replay traffic uses the reserved headroom freely.
	for i := 0; i < 4; i++ {
		if shed := offer(q, 10+i, ClassReplay, true); shed != 0 {
			t.Fatalf("degraded replay push %d not admitted above watermark", i)
		}
	}
	if q.depth() != 8 {
		t.Fatalf("depth = %d, want 8", q.depth())
	}
}

func TestTaskQueueConcurrentDepthBound(t *testing.T) {
	defer leakcheck.Verify(t)()
	const capacity = 8
	q := newTaskQueue(capacity, QueueShedOldest, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tuples, classes := make([]Tuple, 3), make([]TrafficClass, 3)
		for {
			if env, _ := q.drain(tuples, classes); env.kind == ctlStop {
				return
			}
		}
	}()
	var producers sync.WaitGroup
	for p := 0; p < 4; p++ {
		producers.Add(1)
		go func(p int) {
			defer producers.Done()
			run := make([]Tuple, 5)
			for i := 0; i < 2000; i += len(run) {
				for j := range run {
					run[j] = Tuple{Values: []any{p*10000 + i + j}}
				}
				q.pushN(run, ClassIngest, false)
			}
		}(p)
	}
	producers.Wait()
	q.pushCtl(envelope{kind: ctlStop})
	wg.Wait()
	if hw := q.high(); hw > capacity {
		t.Fatalf("high water %d exceeded capacity %d", hw, capacity)
	}
}

// TestTaskQueuePushNInPieces: a run larger than the capacity goes in
// pieces under QueueBlock — order kept, nothing lost, occupancy never
// past the capacity — and the pusher reports the time it spent blocked.
func TestTaskQueuePushNInPieces(t *testing.T) {
	const capacity, n = 4, 19
	q := newTaskQueue(capacity, QueueBlock, 0)
	run := make([]Tuple, n)
	for i := range run {
		run[i] = Tuple{Values: []any{i}}
	}
	pushed := make(chan pushResult)
	go func() { pushed <- q.pushN(run, ClassReplay, false) }()
	tuples, classes := make([]Tuple, 3), make([]TrafficClass, 3)
	for want := 0; want < n; {
		_, got := q.drain(tuples, classes)
		for i := 0; i < got; i++ {
			if seq := tuples[i].Values[0].(int); seq != want || classes[i] != ClassReplay {
				t.Fatalf("drained seq %d class %d, want %d replay", seq, classes[i], want)
			}
			want++
		}
	}
	res := <-pushed
	if res.shed != 0 || res.high > capacity || res.blockedNs <= 0 {
		t.Fatalf("push result %+v: want nothing shed, high <= %d, blocked time recorded", res, capacity)
	}
}

// TestTaskQueueEvictionKeepsReplayOrder: shed-oldest skips the replay
// tuples queued ahead of the oldest ingest tuple and leaves them in order.
func TestTaskQueueEvictionKeepsReplayOrder(t *testing.T) {
	q := newTaskQueue(4, QueueShedOldest, 0)
	offer(q, 0, ClassReplay, false)
	offer(q, 1, ClassReplay, false)
	offer(q, 2, ClassIngest, false)
	offer(q, 3, ClassIngest, false)
	take(q) // move the head off slot 0 so the shift wraps
	offer(q, 4, ClassReplay, false)
	if shed := offer(q, 5, ClassIngest, false); shed != 1 {
		t.Fatalf("shed = %d, want 1 (tuple 2 evicted)", shed)
	}
	for _, want := range []int{1, 3, 4, 5} {
		if got := takeSeq(q); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
	}
}

// gateBolt blocks Execute until released, to pin queue occupancy.
type gateBolt struct {
	gate chan struct{}
}

func (g *gateBolt) Execute(t Tuple, _ Emit) error {
	<-g.gate
	return nil
}

func TestDegradedModeShedsAndJournalsExactAccounting(t *testing.T) {
	defer leakcheck.Verify(t)()
	fr := obs.NewFlightRecorder(64)
	gate := make(chan struct{})
	g := &gateBolt{gate: gate}

	topo := NewTopology("deg")
	sp := newChanSpout()
	if err := topo.AddSpout("src", sp); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("gate", g, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{ChannelDepth: 8, ShedWatermark: 0.5, Flight: fr})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	// One tuple parks in the executor (a run of one: it must be taken off
	// the queue before the rest arrive); four more fill to the watermark.
	task := rt.tasks["gate"][0]
	deadline := time.Now().Add(5 * time.Second)
	sp.push(Tuple{Values: []any{0}})
	for rt.Pending() != 1 || task.in.depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("executor never took the first tuple, depth=%d", task.in.depth())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < 5; i++ {
		sp.push(Tuple{Values: []any{i}})
	}
	for task.in.depth() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached watermark, depth=%d", task.in.depth())
		}
		time.Sleep(time.Millisecond)
	}

	rt.EnterDegraded("test")
	rt.EnterDegraded("nested") // refcount: no second shed_start
	if !rt.Degraded() {
		t.Fatal("runtime not degraded after EnterDegraded")
	}
	for i := 0; i < 3; i++ {
		sp.push(Tuple{Values: []any{100 + i}})
	}
	for rt.Overload().Shed < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sheds = %d, want 3", rt.Overload().Shed)
		}
		time.Sleep(time.Millisecond)
	}
	rt.ExitDegraded()
	if !rt.Degraded() {
		t.Fatal("refcounted degraded mode dropped early")
	}
	rt.ExitDegraded()
	if rt.Degraded() {
		t.Fatal("degraded mode not drained")
	}

	close(gate)
	sp.close()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	ov := rt.Overload()
	if ov.Offered != 8 || ov.Shed != 3 || ov.Admitted != 5 {
		t.Fatalf("offered/shed/admitted = %d/%d/%d, want 8/3/5", ov.Offered, ov.Shed, ov.Admitted)
	}
	var starts, stops int
	var stopDetail string
	for _, ev := range fr.Events() {
		switch ev.Kind {
		case obs.FlightShedStart:
			starts++
		case obs.FlightShedStop:
			stops++
			stopDetail = ev.Detail
		}
	}
	if starts != 1 || stops != 1 {
		t.Fatalf("shed flight events = %d starts / %d stops, want 1/1", starts, stops)
	}
	if !strings.Contains(stopDetail, "shed=3") || !strings.Contains(stopDetail, "admitted=0") {
		t.Fatalf("shed_stop detail = %q, want exact window accounting", stopDetail)
	}
}

// totalBolt counts every tuple into one store key, slowly — the
// overloadable stage. It re-emits the tuple's seq for the sink.
type totalBolt struct {
	store *state.MapStore
	delay time.Duration
}

func newTotalBolt(delay time.Duration) *totalBolt {
	return &totalBolt{store: state.NewMapStore(), delay: delay}
}

func (b *totalBolt) Execute(t Tuple, emit Emit) error {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.store.Put("total", []byte(strconv.FormatInt(b.total()+1, 10)))
	emit(Tuple{Values: t.Values})
	return nil
}

func (b *totalBolt) Store() StateStore { return b.store }

func (b *totalBolt) total() int64 {
	v, ok := b.store.Get("total")
	if !ok {
		return 0
	}
	n, _ := strconv.ParseInt(string(v), 10, 64)
	return n
}

// seqSetSink records distinct seqs observed (replay makes duplicates at
// the sink by design; distinct count is the exactly-once check).
type seqSetSink struct {
	mu   sync.Mutex
	seen map[int]int
}

func newSeqSetSink() *seqSetSink { return &seqSetSink{seen: make(map[int]int)} }

func (s *seqSetSink) Execute(t Tuple, _ Emit) error {
	s.mu.Lock()
	s.seen[t.Values[0].(int)]++
	s.mu.Unlock()
	return nil
}

func (s *seqSetSink) distinct() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

// TestOverloadCrashRecoveryExactlyOnce is the chaos e2e: sustained
// overload against a small bounded queue with shed-oldest, a crash
// mid-stream, recovery, and then the exactness audit — queue depth never
// exceeded capacity, offered = admitted + shed exactly, and every
// admitted tuple is reflected exactly once in recovered state.
func TestOverloadCrashRecoveryExactlyOnce(t *testing.T) {
	defer leakcheck.Verify(t)()
	const n = 1500
	const depth = 16

	reg := metrics.NewRegistry()
	backend := NewMemoryBackend()
	bolt := newTotalBolt(20 * time.Microsecond)
	sink := newSeqSetSink()

	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{Values: []any{i}}
	}
	topo := NewTopology("ovl")
	if err := topo.AddSpout("src", newSliceSpout(tuples[:n/2])); err != nil {
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
		ChannelDepth: depth,
		QueuePolicy:  QueueShedOldest,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	// First half at full speed, then snapshot and crash mid-stream.
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	preTotal := bolt.total()
	preDistinct := int64(sink.distinct())
	ovPre := rt.Overload()
	admittedPre := ovPre.Tasks[0].Admitted
	if ovPre.Tasks[0].Offered != n/2 {
		t.Fatalf("offered = %d, want %d", ovPre.Tasks[0].Offered, n/2)
	}
	if ovPre.Offered != ovPre.Admitted+ovPre.Shed {
		t.Fatalf("accounting broken: %d != %d + %d", ovPre.Offered, ovPre.Admitted, ovPre.Shed)
	}
	if preTotal != admittedPre {
		t.Fatalf("state total %d != admitted %d (lost or duplicated)", preTotal, admittedPre)
	}
	if preDistinct != admittedPre {
		t.Fatalf("sink distinct %d != admitted %d", preDistinct, admittedPre)
	}

	// Second phase: fresh runtime over the same backend and bolt, crash
	// while the second half streams in, recover, and audit end-to-end.
	topo2 := NewTopology("ovl")
	sp := newChanSpout()
	if err := topo2.AddSpout("src", sp); err != nil {
		t.Fatal(err)
	}
	if err := topo2.AddBolt("count", bolt, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	if err := topo2.AddBolt("sink", sink, 1).Global("count").Err(); err != nil {
		t.Fatal(err)
	}
	rt2, err := NewRuntime(topo2, Config{
		Backend:      backend,
		ChannelDepth: depth,
		QueuePolicy:  QueueShedOldest,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt2.Start()
	if err := rt2.Save("count", 0); err != nil {
		t.Fatal(err)
	}

	feed := func(from, to int) {
		for i := from; i < to; i++ {
			sp.push(tuples[i])
		}
	}
	feed(n/2, n*3/4)
	settle(rt2)
	rt2.EnterDegraded("crash drill")
	if err := rt2.Kill("count", 0); err != nil {
		t.Fatal(err)
	}
	feed(n*3/4, n) // arrives while dead: logged for replay, never executed live
	settle(rt2)
	if err := rt2.RecoverTask("count", 0); err != nil {
		t.Fatal(err)
	}
	rt2.ExitDegraded()
	sp.close()
	if err := rt2.Wait(); err != nil {
		t.Fatal(err)
	}

	ov := rt2.Overload()
	if ov.Offered != ov.Admitted+ov.Shed {
		t.Fatalf("accounting broken: %d != %d + %d", ov.Offered, ov.Admitted, ov.Shed)
	}
	var countTask TaskOverloadStats
	for _, ts := range ov.Tasks {
		if ts.Key == "ovl/count/0" {
			countTask = ts
		}
		if ts.QueueHighWater > ts.QueueCap {
			t.Fatalf("%s: high water %d exceeded capacity %d", ts.Key, ts.QueueHighWater, ts.QueueCap)
		}
		if ts.QueueCap != depth {
			t.Fatalf("%s: queue cap %d, want %d", ts.Key, ts.QueueCap, depth)
		}
	}
	if countTask.Offered != n/2 {
		t.Fatalf("phase-2 offered = %d, want %d", countTask.Offered, n/2)
	}
	// Exactly-once for admitted tuples across the crash: recovered state
	// counted each admitted tuple exactly once.
	wantTotal := admittedPre + countTask.Admitted
	if got := bolt.total(); got != wantTotal {
		t.Fatalf("state total after crash+recovery = %d, want %d (admitted pre %d + phase2 %d)",
			got, wantTotal, admittedPre, countTask.Admitted)
	}
	if got := int64(sink.distinct()); got != wantTotal {
		t.Fatalf("sink distinct seqs = %d, want %d", got, wantTotal)
	}
	// The metrics mirror of the shed count agrees with the atomics.
	if got := reg.Counter("sr3_stream_shed_total").Value(); got != ovPre.Shed+ov.Shed {
		t.Fatalf("sr3_stream_shed_total = %d, want %d", got, ovPre.Shed+ov.Shed)
	}
}

// TestIngestWindowBoundsPending: the spout admission gate keeps the
// in-flight count at or under the window.
func TestIngestWindowBoundsPending(t *testing.T) {
	defer leakcheck.Verify(t)()
	const window = 8
	gate := make(chan struct{})
	g := &gateBolt{gate: gate}
	topo := NewTopology("win")
	tuples := make([]Tuple, 200)
	for i := range tuples {
		tuples[i] = Tuple{Values: []any{i}}
	}
	if err := topo.AddSpout("src", newSliceSpout(tuples)); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("gate", g, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{ChannelDepth: 64, IngestWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	time.Sleep(30 * time.Millisecond)
	if p := rt.Pending(); p > window {
		t.Fatalf("pending = %d with ingest window %d", p, window)
	}
	close(gate)
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Overload().Offered; got != 200 {
		t.Fatalf("offered = %d, want 200 (window must delay, not drop)", got)
	}
}

// TestEmitBlockWaitHistogram: a blocked push lands one sample in the
// emit-block wait histogram.
func TestEmitBlockWaitHistogram(t *testing.T) {
	defer leakcheck.Verify(t)()
	reg := metrics.NewRegistry()
	gate := make(chan struct{})
	g := &gateBolt{gate: gate}
	topo := NewTopology("blk")
	tuples := make([]Tuple, 12) // at most 4 in the executor's run + 4 queued: the rest block
	for i := range tuples {
		tuples[i] = Tuple{Values: []any{i}}
	}
	if err := topo.AddSpout("src", newSliceSpout(tuples)); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("gate", g, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{ChannelDepth: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	time.Sleep(30 * time.Millisecond) // let the pump hit the full queue
	close(gate)
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("sr3_stream_emit_block_wait_ns")
	if h.Count() < 1 {
		t.Fatal("no emit-block wait samples recorded")
	}
	if per := reg.Histogram("sr3_stream_task_blk/gate/0_emit_block_wait_ns"); per.Count() < 1 {
		t.Fatal("no per-task emit-block wait samples recorded")
	}
	if reg.Counter("sr3_stream_emit_blocked_ns_total").Value() <= 0 {
		t.Fatal("emit-blocked counter not advanced")
	}
}
