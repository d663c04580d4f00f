package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sr3/internal/metrics"
	"sr3/internal/obs"
	"sr3/internal/state"
)

// StateBackend persists and recovers task state. SR3 and the
// checkpointing baseline both implement it (backend.go).
type StateBackend interface {
	Save(taskKey string, snapshot []byte, v state.Version) error
	Recover(taskKey string) ([]byte, error)
}

// TracedBackend is the traced extension of StateBackend: the recovery's
// spans parent on the caller's trace. SR3Backend implements it; backends
// that don't are recovered untraced.
type TracedBackend interface {
	RecoverTraced(taskKey string, tr *obs.Tracer, parent obs.SpanContext) ([]byte, error)
}

// Config tunes a runtime.
type Config struct {
	// Backend stores stateful task snapshots; nil disables state saving.
	Backend StateBackend
	// SaveEveryTuples triggers an automatic state save after a stateful
	// task processes that many tuples (0 disables; SaveAll still works).
	SaveEveryTuples int
	// ChannelDepth is the per-task input queue capacity. Streams need
	// more than the usual one-slot buffer: the queue absorbs grouping
	// skew and provides backpressure; 256 matches Storm's small executor
	// queues. The capacity is exact — a task's data queue never holds
	// more than ChannelDepth tuples, and overflow is resolved by
	// QueuePolicy.
	ChannelDepth int
	// QueuePolicy selects the full-queue behavior: QueueBlock (default,
	// credit-based backpressure — the producer waits for a slot),
	// QueueShedOldest, or QueueShedPriority. Shed policies never drop
	// replay-class tuples; exactly-once for admitted tuples is preserved
	// under every policy.
	QueuePolicy QueuePolicy
	// ShedWatermark is the degraded-mode admission bound as a fraction
	// of ChannelDepth (default 0.75): while the runtime is in
	// degraded-service mode (EnterDegraded), new ingest-class tuples are
	// shed once a queue is filled past the watermark, reserving the
	// headroom above it for replay and recovery traffic.
	ShedWatermark float64
	// IngestWindow caps the in-flight (routed but unprocessed) tuple
	// count seen by spout pumps: a pump pauses when pending >= window —
	// ingest admission control, the credit-based upstream half of
	// backpressure. 0 disables the gate.
	IngestWindow int
	// BatchSize enables the batched tuple plane: producers coalesce up
	// to this many same-class tuples per destination task into one
	// pooled frame before offering it to the task queue, amortizing the
	// per-tuple queue cost. <= 1 (the default) keeps per-tuple delivery.
	// Every overload invariant survives batching: a batch carries one
	// traffic class, replay batches are never shed, and the offered/
	// shed ledger is settled per tuple.
	BatchSize int
	// BatchLinger bounds how long a partial batch may buffer before the
	// background flusher pushes it (default 1ms when batching is on) —
	// the latency cost ceiling of batching under low rates.
	BatchLinger time.Duration
	// Codec is read by nothing; it exists only because benchmark/layers.go
	// still names it, and goes when that does.
	Codec Codec
	// Now supplies timestamps for state versions (injected for tests).
	Now func() int64
	// Metrics enables steady-state instruments (per-task tuple counters,
	// processing-latency histograms, queue-depth/backpressure gauges) in
	// the given registry. Nil disables them; the disabled hot path costs
	// one nil check per site and allocates nothing.
	Metrics *metrics.Registry
	// Flight, when set, journals topology lifecycle and task kill/recover
	// events into the always-on flight recorder.
	Flight *obs.FlightRecorder
}

func (c Config) withDefaults() Config {
	if c.ChannelDepth <= 0 {
		c.ChannelDepth = 256
	}
	if c.ShedWatermark <= 0 || c.ShedWatermark > 1 {
		c.ShedWatermark = 0.75
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixMilli() }
	}
	if c.BatchSize > 1 && c.BatchLinger <= 0 {
		c.BatchLinger = time.Millisecond
	}
	return c
}

// Runtime errors.
var (
	ErrUnknownTask   = errors.New("stream: unknown task")
	ErrNotStateful   = errors.New("stream: bolt is not stateful")
	ErrTaskDead      = errors.New("stream: task is dead")
	ErrTaskAlive     = errors.New("stream: task is alive")
	ErrNoBackend     = errors.New("stream: no state backend configured")
	ErrAlreadyWaited = errors.New("stream: runtime already drained")
)

type ctlKind int

const (
	ctlTuple ctlKind = iota + 1
	ctlBatch
	ctlSave
	ctlKill
	ctlRecover
	ctlFlush
	ctlStop
)

type envelope struct {
	kind  ctlKind
	tuple Tuple
	batch *tupleBatch  // ctlBatch only: a pooled frame of same-class tuples
	class TrafficClass // ctlTuple/ctlBatch: ingest vs replay admission class
	done  chan error
	// tr/traceParent ride on ctlRecover envelopes so the backend recovery
	// and the input-log replay land in the caller's trace.
	tr          *obs.Tracer
	traceParent obs.SpanContext
}

// task is one executor instance of a bolt.
type task struct {
	key      string
	boltID   string
	index    int
	slot     int // dense runtime-wide index, addressing batcher buffers
	decl     *boltDecl
	in       *taskQueue
	log      []Tuple // tuples since last save (executor goroutine only)
	dead     bool
	saveSeq  uint64
	sinceSav int
	handled  atomic.Int64
	offered  atomic.Int64 // data tuples routed at this task
	shed     atomic.Int64 // data tuples dropped by queue policy / degraded mode
	// curClass is the class of the tuple the executor is currently
	// processing (executor goroutine only): emissions inherit it, so the
	// descendants of a replayed tuple stay replay-class downstream.
	curClass TrafficClass
	instr    *taskInstruments // nil when Config.Metrics is unset
}

// Runtime executes one topology.
type Runtime struct {
	topo *Topology
	cfg  Config

	tasks    map[string][]*task // boltID -> tasks
	slots    []*task            // all tasks by dense slot (batcher addressing)
	subs     map[string][]subscription
	shuffle  map[string]*atomic.Int64 // per (bolt|input) round-robin
	pending  atomic.Int64
	execWG   sync.WaitGroup
	spoutWG  sync.WaitGroup
	waited   bool
	stopped  chan struct{} // closed once Wait has shut the executors down
	failures atomic.Int64  // bolt Execute errors (reported, not fatal)
	instr    *instruments  // nil when Config.Metrics is unset

	offeredAll atomic.Int64 // data tuples routed, all tasks
	shedAll    atomic.Int64 // data tuples shed, all tasks

	// Degraded-service mode (admission control during recovery): a
	// refcount so overlapping recoveries nest, plus the offered/shed
	// snapshot taken at entry so the exit flight event carries the exact
	// accounting for the window.
	degraded   atomic.Int32
	degMu      sync.Mutex
	degOffered int64
	degShed    int64

	// Batched tuple plane (Config.BatchSize > 1): the frame pool, the
	// registry of producer batchers the linger flusher sweeps, and the
	// flusher's lifecycle handles.
	batchPool sync.Pool
	batchMu   sync.Mutex
	batchers  []*batcher
	flushStop chan struct{}
	flushWG   sync.WaitGroup
}

// TaskKey names a task for backends and failure injection.
func TaskKey(topo, bolt string, index int) string {
	return fmt.Sprintf("%s/%s/%d", topo, bolt, index)
}

// NewRuntime validates the topology and materializes its tasks.
func NewRuntime(topo *Topology, cfg Config) (*Runtime, error) {
	if err := topo.validate(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	cfg = cfg.withDefaults()
	rt := &Runtime{
		topo:    topo,
		cfg:     cfg,
		tasks:   make(map[string][]*task),
		subs:    make(map[string][]subscription),
		shuffle: make(map[string]*atomic.Int64),
		stopped: make(chan struct{}),
	}
	if cfg.Metrics != nil {
		rt.instr = newInstruments(cfg.Metrics)
	}
	batchCap := cfg.BatchSize
	rt.batchPool.New = func() any {
		return &tupleBatch{tuples: make([]Tuple, 0, batchCap)}
	}
	for _, id := range topo.order {
		decl, ok := topo.bolts[id]
		if !ok {
			continue
		}
		watermark := int(float64(cfg.ChannelDepth) * cfg.ShedWatermark)
		ts := make([]*task, decl.parallel)
		for i := range ts {
			ts[i] = &task{
				key:    TaskKey(topo.name, id, i),
				boltID: id,
				index:  i,
				slot:   len(rt.slots),
				decl:   decl,
				in:     newTaskQueue(cfg.ChannelDepth, cfg.QueuePolicy, watermark),
			}
			rt.slots = append(rt.slots, ts[i])
			if rt.instr != nil {
				ts[i].instr = newTaskInstruments(rt.instr, cfg.Metrics, ts[i].key)
			}
		}
		rt.tasks[id] = ts
		for _, in := range decl.inputs {
			rt.subs[in.from] = append(rt.subs[in.from], subscription{decl: decl, in: in})
			rt.shuffle[id+"|"+in.from] = &atomic.Int64{}
		}
	}
	return rt, nil
}

// Start launches executors and spout pumps (plus the batch linger
// flusher when the batched tuple plane is enabled).
func (rt *Runtime) Start() {
	if rt.cfg.BatchSize > 1 {
		rt.flushStop = make(chan struct{})
		rt.flushWG.Add(1)
		go rt.runFlusher()
	}
	n := 0
	for _, ts := range rt.tasks {
		for _, t := range ts {
			rt.execWG.Add(1)
			go rt.runTask(t)
			n++
		}
	}
	rt.cfg.Flight.Note(obs.FlightTopologyStart, "", rt.topo.name,
		fmt.Sprintf("tasks=%d spouts=%d", n, len(rt.topo.spouts)), nil)
	for id, s := range rt.topo.spouts {
		rt.spoutWG.Add(1)
		go func(id string, sp Spout) {
			defer rt.spoutWG.Done()
			ob := rt.newBatcher() // nil when batching is off
			window := int64(rt.cfg.IngestWindow)
			for {
				tuple, ok := sp.Next()
				if !ok {
					ob.flushAll()
					return
				}
				// Ingest admission gate: hold new spout tuples while the
				// in-flight count is at the window — upstream credit-based
				// backpressure, so overload queues at the source instead
				// of fanning out into the topology. Buffered batches count
				// against the window, so flush them while gated or the
				// gate would wait on tuples only we can release.
				for window > 0 && rt.pending.Load() >= window {
					ob.flushAll()
					time.Sleep(100 * time.Microsecond)
				}
				tuple.Stream = id
				rt.instr.noteSpout()
				rt.route(id, tuple, ClassIngest, ob)
			}
		}(id, s.spout)
	}
}

// subscription is one (bolt, input) edge.
type subscription struct {
	decl *boltDecl
	in   input
}

// ErrUnknownStream reports an Inject for a component this runtime never
// declared (spout, source, or bolt).
var ErrUnknownStream = errors.New("stream: unknown source component")

// Inject delivers one externally produced tuple as if component from had
// emitted it locally, under the given admission class — the ingress path
// of a multi-process deployment: a peer node's relay pushes batch frames
// across the wire and the receiving daemon injects each tuple here, so
// local grouping subscriptions (fields/shuffle/global/all) route it to
// the right task. Replay-class injections keep their shed immunity.
// Blocks for queue backpressure exactly like a local emission.
func (rt *Runtime) Inject(from string, tuple Tuple, class TrafficClass) error {
	if !rt.topo.has(from) {
		return fmt.Errorf("inject from %q: %w", from, ErrUnknownStream)
	}
	tuple.Stream = from
	rt.route(from, tuple, class, nil)
	return nil
}

// InjectTo is Inject restricted to a single subscribing bolt: the tuple
// routes only through toBolt's subscription to from, under that edge's
// grouping. Relays are per-edge — a node hosting two subscribers of the
// same upstream component runs one ingress per edge — so the unfiltered
// Inject would double-deliver to whichever subscriber the other relay
// also feeds.
func (rt *Runtime) InjectTo(from, toBolt string, tuple Tuple, class TrafficClass) error {
	if !rt.topo.has(from) {
		return fmt.Errorf("inject from %q: %w", from, ErrUnknownStream)
	}
	if _, ok := rt.tasks[toBolt]; !ok {
		return fmt.Errorf("inject to %q: %w", toBolt, ErrUnknownTask)
	}
	tuple.Stream = from
	for _, sub := range rt.subs[from] {
		if sub.decl.id != toBolt {
			continue
		}
		rt.routeSub(sub, from, tuple, class, nil)
	}
	return nil
}

// route delivers a tuple from a component to all subscribing bolts,
// tagging every delivery with the traffic class of its origin. ob is
// the producer's batcher (nil selects the per-tuple enqueue path);
// grouping decisions stay per-tuple — batching happens after the
// destination task is chosen, so Fields/Shuffle/Global semantics are
// untouched.
func (rt *Runtime) route(from string, tuple Tuple, class TrafficClass, ob *batcher) {
	for _, sub := range rt.subs[from] {
		rt.routeSub(sub, from, tuple, class, ob)
	}
}

// routeSub applies one subscription's grouping to pick the destination
// task(s) and delivers.
func (rt *Runtime) routeSub(sub subscription, from string, tuple Tuple, class TrafficClass, ob *batcher) {
	ts := rt.tasks[sub.decl.id]
	switch sub.in.grouping {
	case ShuffleGrouping:
		ctr := rt.shuffle[sub.decl.id+"|"+from]
		idx := int(ctr.Add(1)-1) % len(ts)
		rt.deliver(ts[idx], tuple, class, ob)
	case FieldsGrouping:
		var key any
		if sub.in.field < len(tuple.Values) {
			key = tuple.Values[sub.in.field]
		}
		rt.deliver(ts[hashField(key, len(ts))], tuple, class, ob)
	case GlobalGrouping:
		rt.deliver(ts[0], tuple, class, ob)
	case AllGrouping:
		for _, t := range ts {
			rt.deliver(t, tuple, class, ob)
		}
	}
}

// deliver hands one tuple to a task: buffered into the producer's
// batcher when batching is on, queued directly otherwise. Either way
// the tuple counts pending immediately, so Drain covers buffered
// tuples.
func (rt *Runtime) deliver(t *task, tuple Tuple, class TrafficClass, ob *batcher) {
	if ob == nil {
		rt.enqueue(t, tuple, class)
		return
	}
	rt.pending.Add(1)
	ob.add(t, tuple, class)
}

// enqueue offers one data tuple to a task's queue, keeping the
// offered/shed accounting exact: every tuple counts as offered, and
// every shed tuple (the incoming one or an evicted older one) counts as
// shed exactly once, so admitted = offered − shed always holds.
func (rt *Runtime) enqueue(t *task, tuple Tuple, class TrafficClass) {
	rt.pending.Add(1)
	t.offered.Add(1)
	rt.offeredAll.Add(1)
	degraded := rt.degraded.Load() > 0
	env := envelope{kind: ctlTuple, tuple: tuple, class: class}
	if t.instr == nil {
		outcome, evicted, _ := t.in.pushData(env, degraded)
		rt.settlePush(t, outcome, env, evicted)
		return
	}
	// Instrumented path: time the push — if it had to wait for a slot,
	// that wait is the backpressure signal.
	start := time.Now()
	outcome, evicted, waited := t.in.pushData(env, degraded)
	if waited {
		t.instr.noteBlocked(time.Since(start).Nanoseconds())
	}
	rt.settlePush(t, outcome, env, evicted)
	t.instr.noteIn(t.in.depth())
}

// settlePush settles the ledger for one pushData outcome in tuples:
// under shed-self the offered envelope's own tuples are debited, under
// shed-oldest the evicted envelope's. Shed batch frames are recycled
// here — their tuples will never reach an executor.
func (rt *Runtime) settlePush(t *task, outcome pushOutcome, env, evicted envelope) {
	switch outcome {
	case pushShedSelf:
		rt.noteShed(t, env.tupleCount())
		if env.batch != nil {
			rt.putBatch(env.batch)
		}
	case pushShedOldest:
		rt.noteShed(t, evicted.tupleCount())
		if evicted.batch != nil {
			rt.putBatch(evicted.batch)
		}
	}
}

// noteShed debits n shed tuples: they will never be processed, so they
// leave the pending count and join the shed tally.
func (rt *Runtime) noteShed(t *task, n int) {
	if n == 0 {
		return
	}
	rt.pending.Add(int64(-n))
	t.shed.Add(int64(n))
	rt.shedAll.Add(int64(n))
	t.instr.noteShedN(n)
}

// runTask is the executor loop: a single goroutine owns the task's log,
// state and liveness, so control operations serialize naturally with
// tuple processing.
func (rt *Runtime) runTask(t *task) {
	defer rt.execWG.Done()
	ob := rt.newBatcher() // this executor's output batcher; nil when off
	emit := func(out Tuple) {
		out.Stream = t.boltID
		t.instr.noteEmit()
		// Emissions inherit the class of the tuple being processed, so
		// replay descendants keep their shed immunity downstream.
		rt.route(t.boltID, out, t.curClass, ob)
	}
	for {
		env, ok := t.in.tryPop()
		if !ok {
			// Idle: nothing to process, so nothing new will fill our
			// partial output batches — push them downstream before
			// parking, then block for the next envelope.
			ob.flushAll()
			env = t.in.pop()
		}
		switch env.kind {
		case ctlTuple:
			rt.execTuple(t, env.tuple, env.class, emit)
			rt.pending.Add(-1)

		case ctlBatch:
			// One admitted frame: every carried tuple runs through the
			// identical per-tuple path (log, execute, periodic save), so
			// recovery replay and exactly-once semantics cannot tell
			// batched delivery from per-tuple delivery.
			for _, tuple := range env.batch.tuples {
				rt.execTuple(t, tuple, env.batch.class, emit)
				rt.pending.Add(-1)
			}
			rt.putBatch(env.batch)

		case ctlSave:
			env.done <- rt.saveTask(t)

		case ctlKill:
			t.dead = true
			rt.cfg.Flight.Note(obs.FlightTaskKill, "", rt.topo.name, t.key, nil)
			env.done <- nil

		case ctlRecover:
			err := rt.recoverTask(t, emit, env.tr, env.traceParent)
			// Barrier flush: replayed emissions must be visible before
			// the recovery reply, not parked until the next idle sweep.
			ob.flushAll()
			env.done <- err

		case ctlFlush:
			var err error
			if f, ok := t.decl.bolt.(Flusher); ok && !t.dead {
				err = f.Flush(emit)
			}
			ob.flushAll()
			env.done <- err

		case ctlStop:
			env.done <- nil
			return
		}
	}
}

// execTuple is the per-tuple executor body, shared by the per-tuple and
// batched delivery paths: input-log append, execute, periodic save.
func (rt *Runtime) execTuple(t *task, tuple Tuple, class TrafficClass, emit Emit) {
	t.curClass = class
	if t.decl.stateful {
		t.log = append(t.log, tuple)
	}
	if t.dead {
		return
	}
	var start time.Time
	if t.instr != nil {
		start = time.Now()
	}
	var err error
	if cb, ok := t.decl.bolt.(ClassedBolt); ok {
		err = cb.ExecuteClassed(tuple, class, emit)
	} else {
		err = t.decl.bolt.Execute(tuple, emit)
	}
	if err != nil {
		rt.failures.Add(1)
		t.instr.noteExecError()
	}
	t.instr.noteAck(start)
	t.handled.Add(1)
	t.sinceSav++
	if rt.cfg.SaveEveryTuples > 0 && t.decl.stateful &&
		t.sinceSav >= rt.cfg.SaveEveryTuples {
		_ = rt.saveTask(t) // periodic save failure is not fatal
	}
}

// saveTask snapshots the bolt's state into the backend and truncates the
// input log (executor goroutine only).
func (rt *Runtime) saveTask(t *task) error {
	if !t.decl.stateful {
		return fmt.Errorf("save %s: %w", t.key, ErrNotStateful)
	}
	if rt.cfg.Backend == nil {
		return fmt.Errorf("save %s: %w", t.key, ErrNoBackend)
	}
	if t.dead {
		return fmt.Errorf("save %s: %w", t.key, ErrTaskDead)
	}
	sb, ok := t.decl.bolt.(StatefulBolt)
	if !ok {
		return fmt.Errorf("save %s: %w", t.key, ErrNotStateful)
	}
	snap, err := sb.Store().Snapshot()
	if err != nil {
		return fmt.Errorf("save %s: %w", t.key, err)
	}
	t.saveSeq++
	v := state.Version{Timestamp: rt.cfg.Now(), Seq: t.saveSeq}
	if err := rt.cfg.Backend.Save(t.key, snap, v); err != nil {
		return fmt.Errorf("save %s: %w", t.key, err)
	}
	t.instr.noteState(len(snap))
	// Truncate in place: the next save interval logs as many tuples again,
	// and regrowing from nil by doubling is that much large-object garbage
	// per save. clear drops the tuples' references.
	clear(t.log)
	t.log = t.log[:0]
	t.sinceSav = 0
	return nil
}

// recoverTask restores the last saved snapshot and replays the input log
// (executor goroutine only). With a tracer, the backend recovery parents
// its spans on parent and the replay is one PhaseReplay span.
func (rt *Runtime) recoverTask(t *task, emit Emit, tr *obs.Tracer, parent obs.SpanContext) error {
	if !t.dead {
		return fmt.Errorf("recover %s: %w", t.key, ErrTaskAlive)
	}
	sb, ok := t.decl.bolt.(StatefulBolt)
	if !ok {
		return fmt.Errorf("recover %s: %w", t.key, ErrNotStateful)
	}
	if rt.cfg.Backend == nil {
		return fmt.Errorf("recover %s: %w", t.key, ErrNoBackend)
	}
	var snap []byte
	var err error
	if tb, ok := rt.cfg.Backend.(TracedBackend); ok && tr.Enabled() && parent.Valid() {
		snap, err = tb.RecoverTraced(t.key, tr, parent)
	} else {
		snap, err = rt.cfg.Backend.Recover(t.key)
	}
	if err != nil {
		return fmt.Errorf("recover %s: %w", t.key, err)
	}
	if err := sb.Store().Restore(snap); err != nil {
		return fmt.Errorf("recover %s: %w", t.key, err)
	}
	var sp *obs.Span
	if parent.Valid() {
		sp = tr.StartSpan(parent, obs.PhaseReplay)
		sp.SetStr("task", t.key)
		sp.SetInt("tuples", int64(len(t.log)))
	}
	// Replayed tuples — and everything they emit downstream — are
	// replay-class: shed policies and degraded mode may not drop them.
	t.curClass = ClassReplay
	for _, tuple := range t.log {
		if err := t.decl.bolt.Execute(tuple, emit); err != nil {
			rt.failures.Add(1)
			t.instr.noteExecError()
		}
		t.handled.Add(1)
	}
	t.curClass = ClassIngest
	t.instr.noteReplay(len(t.log))
	sp.End()
	t.dead = false
	rt.cfg.Flight.Note(obs.FlightTaskRecover, "", rt.topo.name,
		fmt.Sprintf("%s replayed=%d", t.key, len(t.log)), nil)
	return nil
}

// control sends one control envelope to a task's executor. Control
// envelopes ride the queue's unbounded control lane — the executor
// drains it before data, so a kill or recover never waits behind a
// backlog of tuples (the weighted dequeue that keeps recovery responsive
// under overload). The reply races against runtime shutdown: a
// supervisor may issue a kill/recover after Wait has already stopped the
// executor, and blocking on a reply nobody will send would deadlock the
// caller. The stopped channel turns that into ErrAlreadyWaited instead.
func (rt *Runtime) control(bolt string, index int, kind ctlKind) error {
	return rt.controlEnv(bolt, index, envelope{kind: kind})
}

func (rt *Runtime) controlEnv(bolt string, index int, env envelope) error {
	ts, ok := rt.tasks[bolt]
	if !ok || index < 0 || index >= len(ts) {
		return fmt.Errorf("%s[%d]: %w", bolt, index, ErrUnknownTask)
	}
	select {
	case <-rt.stopped:
		return fmt.Errorf("%s[%d]: %w", bolt, index, ErrAlreadyWaited)
	default:
	}
	done := make(chan error, 1)
	env.done = done
	ts[index].in.pushCtl(env)
	select {
	case err := <-done:
		return err
	case <-rt.stopped:
		return fmt.Errorf("%s[%d]: %w", bolt, index, ErrAlreadyWaited)
	}
}

// Save snapshots one stateful task's state through the backend.
func (rt *Runtime) Save(bolt string, index int) error {
	return rt.control(bolt, index, ctlSave)
}

// SaveAll snapshots every stateful task.
func (rt *Runtime) SaveAll() error {
	for _, id := range rt.topo.order {
		decl, ok := rt.topo.bolts[id]
		if !ok || !decl.stateful {
			continue
		}
		for i := range rt.tasks[id] {
			if err := rt.Save(id, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Kill crashes a task: it stops processing (its in-memory state is
// considered lost) but keeps logging arriving tuples for replay.
func (rt *Runtime) Kill(bolt string, index int) error {
	return rt.control(bolt, index, ctlKill)
}

// RecoverTask restores a killed task from the backend and replays its
// input log.
func (rt *Runtime) RecoverTask(bolt string, index int) error {
	return rt.control(bolt, index, ctlRecover)
}

// taskByKey resolves a task key ("topo/bolt/idx") to its bolt and index.
func (rt *Runtime) taskByKey(key string) (string, int, error) {
	for bolt, ts := range rt.tasks {
		for _, t := range ts {
			if t.key == key {
				return bolt, t.index, nil
			}
		}
	}
	return "", 0, fmt.Errorf("%s: %w", key, ErrUnknownTask)
}

// KillByKey crashes the task with the given task key — the supervisor's
// entry point, which knows tasks by the keys the state backend uses.
func (rt *Runtime) KillByKey(key string) error {
	bolt, index, err := rt.taskByKey(key)
	if err != nil {
		return err
	}
	return rt.Kill(bolt, index)
}

// RecoverTaskByKey restores a killed task by its task key (backend
// recovery plus input-log replay), for the supervisor.
func (rt *Runtime) RecoverTaskByKey(key string) error {
	bolt, index, err := rt.taskByKey(key)
	if err != nil {
		return err
	}
	return rt.RecoverTask(bolt, index)
}

// RecoverTaskByKeyTraced is RecoverTaskByKey with the recovery and
// replay spans parented on the caller's trace — the supervisor's traced
// restore path (supervise.TracedTaskRuntime).
func (rt *Runtime) RecoverTaskByKeyTraced(key string, tr *obs.Tracer, parent obs.SpanContext) error {
	bolt, index, err := rt.taskByKey(key)
	if err != nil {
		return err
	}
	return rt.controlEnv(bolt, index, envelope{kind: ctlRecover, tr: tr, traceParent: parent})
}

// StatefulTaskKeys lists the task keys of all stateful tasks, in
// topological bolt order — what a supervisor protects.
func (rt *Runtime) StatefulTaskKeys() []string {
	var out []string
	for _, id := range rt.topo.sortedBolts() {
		decl, ok := rt.topo.bolts[id]
		if !ok || !decl.stateful {
			continue
		}
		for _, t := range rt.tasks[id] {
			out = append(out, t.key)
		}
	}
	return out
}

// Flusher lets windowed bolts emit buffered results when the stream
// ends. Wait calls Flush on each bolt in topological order.
type Flusher interface {
	Flush(emit Emit) error
}

// Wait blocks until all spouts are exhausted and every in-flight tuple is
// processed, flushes windowed bolts in dependency order, then stops the
// executors. Call exactly once.
func (rt *Runtime) Wait() error {
	if rt.waited {
		return ErrAlreadyWaited
	}
	rt.waited = true
	rt.spoutWG.Wait()
	rt.Drain()
	// Flush upstream before downstream so flushed emissions are seen.
	for _, id := range rt.topo.sortedBolts() {
		for _, t := range rt.tasks[id] {
			done := make(chan error, 1)
			t.in.pushCtl(envelope{kind: ctlFlush, done: done})
			if err := <-done; err != nil {
				rt.failures.Add(1)
			}
		}
		rt.Drain()
	}
	for _, ts := range rt.tasks {
		for _, t := range ts {
			done := make(chan error, 1)
			t.in.pushCtl(envelope{kind: ctlStop, done: done})
			<-done
		}
	}
	rt.execWG.Wait()
	if rt.flushStop != nil {
		close(rt.flushStop)
		rt.flushWG.Wait()
	}
	close(rt.stopped)
	rt.cfg.Flight.Note(obs.FlightTopologyStop, "", rt.topo.name,
		fmt.Sprintf("errors=%d", rt.failures.Load()), nil)
	return nil
}

// Drain waits for all currently in-flight tuples to be processed without
// stopping the runtime (spouts may still be running; use between phases
// in tests and failure-injection scenarios).
func (rt *Runtime) Drain() {
	for rt.pending.Load() != 0 {
		time.Sleep(200 * time.Microsecond)
	}
}

// Handled returns the number of tuples a task has processed (including
// replays).
func (rt *Runtime) Handled(bolt string, index int) (int64, error) {
	ts, ok := rt.tasks[bolt]
	if !ok || index < 0 || index >= len(ts) {
		return 0, fmt.Errorf("%s[%d]: %w", bolt, index, ErrUnknownTask)
	}
	return ts[index].handled.Load(), nil
}

// ExecuteErrors returns how many bolt executions returned errors.
func (rt *Runtime) ExecuteErrors() int64 { return rt.failures.Load() }

// Parallelism returns a bolt's task count.
func (rt *Runtime) Parallelism(bolt string) int { return len(rt.tasks[bolt]) }

// TaskStats is a point-in-time view of one task.
type TaskStats struct {
	Key      string
	Bolt     string
	Index    int
	Handled  int64
	Stateful bool
}

// Stats returns a snapshot of every task's progress, sorted by task key —
// the runtime's observability surface.
func (rt *Runtime) Stats() []TaskStats {
	var out []TaskStats
	for _, id := range rt.topo.sortedBolts() {
		for _, t := range rt.tasks[id] {
			out = append(out, TaskStats{
				Key:      t.key,
				Bolt:     t.boltID,
				Index:    t.index,
				Handled:  t.handled.Load(),
				Stateful: t.decl.stateful,
			})
		}
	}
	return out
}

// Pending reports the tuples currently routed but not yet processed.
func (rt *Runtime) Pending() int64 { return rt.pending.Load() }

// EnterDegraded flips the runtime into degraded-service mode: new
// ingest-class tuples are shed once a task queue fills past the
// watermark, reserving the remaining capacity for replay and recovery
// traffic. Calls nest (refcount) so overlapping recoveries each hold the
// mode; the first entry journals an overload.shed_start flight event
// carrying the reason.
func (rt *Runtime) EnterDegraded(reason string) {
	if rt.degraded.Add(1) != 1 {
		return
	}
	rt.degMu.Lock()
	rt.degOffered = rt.offeredAll.Load()
	rt.degShed = rt.shedAll.Load()
	rt.degMu.Unlock()
	rt.instr.noteDegraded(true)
	rt.cfg.Flight.Note(obs.FlightShedStart, "", rt.topo.name,
		fmt.Sprintf("reason=%s policy=%s watermark=%.2f", reason, rt.cfg.QueuePolicy, rt.cfg.ShedWatermark), nil)
}

// ExitDegraded releases one EnterDegraded hold. The last exit drains
// shed mode and journals an overload.shed_stop flight event with the
// exact offered/shed/admitted accounting for the degraded window.
func (rt *Runtime) ExitDegraded() {
	if rt.degraded.Add(-1) != 0 {
		return
	}
	rt.degMu.Lock()
	offered := rt.offeredAll.Load() - rt.degOffered
	shed := rt.shedAll.Load() - rt.degShed
	rt.degMu.Unlock()
	rt.instr.noteDegraded(false)
	rt.cfg.Flight.Note(obs.FlightShedStop, "", rt.topo.name,
		fmt.Sprintf("offered=%d shed=%d admitted=%d", offered, shed, offered-shed), nil)
}

// Degraded reports whether the runtime is in degraded-service mode.
func (rt *Runtime) Degraded() bool { return rt.degraded.Load() > 0 }

// TaskOverloadStats is one task's exact admission accounting.
type TaskOverloadStats struct {
	Key string
	// Offered counts data tuples routed at this task.
	Offered int64
	// Shed counts tuples dropped (queue policy or degraded mode).
	Shed int64
	// Admitted = Offered − Shed; every admitted tuple is processed
	// exactly once (modulo recovery replay, which re-executes from the
	// input log by design).
	Admitted int64
	// QueueCap is the data queue's exact capacity bound.
	QueueCap int
	// QueueHighWater is the largest queue occupancy ever observed —
	// never exceeds QueueCap.
	QueueHighWater int
}

// OverloadStats is the runtime-wide admission accounting snapshot.
type OverloadStats struct {
	Offered  int64
	Shed     int64
	Admitted int64
	Degraded bool
	Tasks    []TaskOverloadStats
}

// Overload snapshots the exact offered/shed/admitted accounting, per
// task and rolled up. The invariant offered = admitted + shed holds by
// construction at every level.
func (rt *Runtime) Overload() OverloadStats {
	s := OverloadStats{
		Offered:  rt.offeredAll.Load(),
		Shed:     rt.shedAll.Load(),
		Degraded: rt.Degraded(),
	}
	s.Admitted = s.Offered - s.Shed
	for _, id := range rt.topo.sortedBolts() {
		for _, t := range rt.tasks[id] {
			off, sh := t.offered.Load(), t.shed.Load()
			s.Tasks = append(s.Tasks, TaskOverloadStats{
				Key:            t.key,
				Offered:        off,
				Shed:           sh,
				Admitted:       off - sh,
				QueueCap:       t.in.capacity(),
				QueueHighWater: t.in.high(),
			})
		}
	}
	return s
}
