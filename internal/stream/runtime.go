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
// checkpointing baseline both implement it (backend.go). Save borrows
// view for the call: the runtime passes the store's View, whose lease
// keeps the state frozen until Save returns and is released then, so a
// backend reads — shards, sends — the bytes where they are and copies
// whatever it keeps past the call. Recover mirrors it: the backend lends
// the recovered state as a view — a recovery's shard bodies as they lie,
// or what an in-process backend keeps — the runtime restores the store
// from it (StateStore.RestoreView), which copies what it keeps, and then
// releases it. A traced recovery parents its spans on parent; the runtime
// hands a nil tracer and the zero context to an untraced one, and a
// backend with nothing to trace ignores both.
type StateBackend interface {
	Save(taskKey string, view state.View, v state.Version) error
	Recover(taskKey string, tr *obs.Tracer, parent obs.SpanContext) (state.View, error)
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
	// credit-based backpressure — the producer waits for a slot) or
	// QueueShedOldest. Shedding never drops replay-class tuples;
	// exactly-once for admitted tuples is preserved under either policy.
	QueuePolicy QueuePolicy
	// UpstreamReplay declares that every input of this runtime is retained
	// and replayed by its sender, and that a task dies with the runtime's
	// process: a live task then keeps no input log, because nothing in this
	// runtime could ever replay it. A task between Kill and Recover still
	// logs what arrives, and Recover still replays that. The zero value
	// keeps the log — what a runtime that kills and recovers tasks while it
	// lives (the in-process Framework) needs; the daemon, whose edges are
	// relay windows, sets it.
	UpstreamReplay bool
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

// shedWatermark is the degraded-mode admission bound as a fraction of
// ChannelDepth: while the runtime is in degraded-service mode
// (EnterDegraded), new ingest-class tuples are shed once a queue is filled
// past the watermark, reserving the headroom above it for replay and
// recovery traffic.
const shedWatermark = 0.75

func (c Config) withDefaults() Config {
	if c.ChannelDepth <= 0 {
		c.ChannelDepth = 256
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixMilli() }
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

// nowNano is the tuple plane's only clock. It is read per run and per
// blocked push — never per tuple — and tests swap it to count the reads.
var nowNano = func() int64 { return time.Now().UnixNano() }

// runCap bounds a run: the most tuples an executor takes from its queue
// per wake-up, and the most output it buffers before pushing downstream.
// A run is whatever is already queued, so the cap never makes a tuple
// wait; it bounds how long a control operation waits behind data and how
// much finished output sits in the executor. Picked by measurement
// (EXPERIMENTS.md "Cross-process edge").
const runCap = 64

type ctlKind int

const (
	ctlRun ctlKind = iota // not a control operation: a run of data tuples
	ctlSave
	ctlKill
	ctlRecover
	ctlFlush
	ctlStop
)

// envelope is one control operation on a task's control lane.
type envelope struct {
	kind ctlKind
	done chan error
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
	slot     int // dense runtime-wide index, addressing outbox buffers
	decl     *boltDecl
	batch    BatchBolt // decl.bolt if it takes whole runs, else nil
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

	// saveBackoff is the distance in tuples to the retry of a failed
	// periodic save — it doubles from 1 to SaveEveryTuples and a successful
	// save zeroes it — and saveDue the sinceSav that retry waits for
	// (executor goroutine only).
	saveBackoff int
	saveDue     int
	logged      atomic.Int64 // len(log) as the executor last published it
	// saveAsked is set while a RequestSaveByKey save waits on the control
	// lane, so asking again piles nothing up behind a busy executor.
	saveAsked atomic.Bool
}

// Runtime executes one topology.
type Runtime struct {
	topo *Topology
	cfg  Config

	tasks    map[string][]*task // boltID -> tasks
	slots    int                // tasks materialized: the next dense slot
	subs     map[string][]subscription
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
		stopped: make(chan struct{}),
	}
	if cfg.Metrics != nil {
		rt.instr = newInstruments(cfg.Metrics)
	}
	for _, id := range topo.order {
		decl, ok := topo.bolts[id]
		if !ok {
			continue
		}
		watermark := int(float64(cfg.ChannelDepth) * shedWatermark)
		batch, _ := decl.bolt.(BatchBolt)
		ts := make([]*task, decl.parallel)
		for i := range ts {
			ts[i] = &task{
				key:    TaskKey(topo.name, id, i),
				boltID: id,
				index:  i,
				slot:   rt.slots,
				decl:   decl,
				batch:  batch,
				in:     newTaskQueue(cfg.ChannelDepth, cfg.QueuePolicy, watermark),
			}
			rt.slots++
			if rt.instr != nil {
				ts[i].instr = newTaskInstruments(rt.instr, cfg.Metrics, ts[i].key)
			}
		}
		rt.tasks[id] = ts
		for _, in := range decl.inputs {
			rt.subs[in.from] = append(rt.subs[in.from],
				subscription{decl: decl, in: in, tasks: ts, shuffle: new(atomic.Int64)})
		}
	}
	return rt, nil
}

// Start launches executors and spout pumps.
func (rt *Runtime) Start() {
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
			out := rt.newOutbox(nil)
			subs := rt.subs[id]
			for {
				tuple, ok := sp.Next()
				if !ok {
					return
				}
				tuple.Stream = id
				rt.instr.noteSpout()
				// A run of one: the pump cannot know whether the next Next
				// will block, and nothing may wait for company.
				out.route(subs, tuple, ClassIngest)
				out.flush()
			}
		}(id, s.spout)
	}
}

// subscription is one (bolt, input) edge.
type subscription struct {
	decl    *boltDecl
	in      input
	tasks   []*task       // the subscribing bolt's tasks
	shuffle *atomic.Int64 // round-robin cursor of a shuffle grouping
}

// pick applies the subscription's grouping to one tuple: the index of
// the destination task, or -1 for every task (all grouping).
func (sub *subscription) pick(tuple *Tuple) int {
	switch sub.in.grouping {
	case ShuffleGrouping:
		return int((sub.shuffle.Add(1) - 1) % int64(len(sub.tasks)))
	case FieldsGrouping:
		var key any
		if sub.in.field < len(tuple.Values) {
			key = tuple.Values[sub.in.field]
		}
		return hashField(key, len(sub.tasks))
	case AllGrouping:
		return -1
	default: // GlobalGrouping
		return 0
	}
}

// ErrUnknownStream reports an InjectBatch for a component this runtime
// never declared (spout, source, or bolt).
var ErrUnknownStream = errors.New("stream: unknown source component")

// InjectBatch delivers a run of externally produced same-class tuples as
// if component from had emitted them locally — the ingress path of a
// multi-process deployment: a peer node's relay pushes batch frames
// across the wire and the receiving daemon injects each decoded frame
// here. The run routes only through toBolt's subscription to from, under
// that edge's grouping (relays are per-edge, so a node hosting two
// subscribers of one upstream component runs one ingress per edge), and
// each destination task takes its share in one queue push: one lock, one
// ledger update per frame. Replay-class runs keep their shed immunity.
// Blocks for queue backpressure exactly like a local emission. The
// tuples' Stream is set to from; the slice is not retained.
func (rt *Runtime) InjectBatch(from, toBolt string, tuples []Tuple, class TrafficClass) error {
	if !rt.topo.has(from) {
		return fmt.Errorf("inject from %q: %w", from, ErrUnknownStream)
	}
	if _, ok := rt.tasks[toBolt]; !ok {
		return fmt.Errorf("inject to %q: %w", toBolt, ErrUnknownTask)
	}
	for i := range tuples {
		tuples[i].Stream = from
	}
	subs := rt.subs[from]
	for i := range subs {
		sub := &subs[i]
		if sub.decl.id != toBolt {
			continue
		}
		if len(sub.tasks) == 1 {
			rt.pushN(sub.tasks[0], tuples, class) // the whole frame, as it lies
			continue
		}
		out := rt.newOutbox(nil)
		for j := range tuples {
			out.add(sub, tuples[j], class)
		}
		out.flush()
	}
	return nil
}

// outbox is one producer's buffered output: a plain slice of tuples per
// destination task, owned by the producer's goroutine (an executor, a
// spout pump, or one InjectBatch call). Everything in it has one traffic
// class. flush pushes each destination's slice in one queue operation.
type outbox struct {
	rt    *Runtime
	instr *taskInstruments // the producing task's, nil for pumps and ingress
	bufs  [][]Tuple        // by destination task slot
	dirty []*task          // destinations with buffered tuples
	class TrafficClass
	n     int // tuples buffered
	// emitted counts emissions since the last flush; an all grouping or a
	// second subscriber buffers one emission several times.
	emitted int
}

func (rt *Runtime) newOutbox(owner *task) *outbox {
	o := &outbox{rt: rt, bufs: make([][]Tuple, rt.slots)}
	if owner != nil {
		o.instr = owner.instr
	}
	return o
}

// route buffers one emission for every subscription of its component.
func (o *outbox) route(subs []subscription, tuple Tuple, class TrafficClass) {
	o.emitted++
	for i := range subs {
		o.add(&subs[i], tuple, class)
	}
}

// add buffers one tuple for the task(s) the subscription's grouping
// picks. A class change or a full buffer flushes first, so the outbox
// holds one class and at most runCap tuples.
func (o *outbox) add(sub *subscription, tuple Tuple, class TrafficClass) {
	if class != o.class || o.n >= runCap {
		o.flush()
		o.class = class
	}
	idx := sub.pick(&tuple)
	if idx >= 0 {
		o.put(sub.tasks[idx], tuple)
		return
	}
	for _, t := range sub.tasks {
		o.put(t, tuple)
	}
}

func (o *outbox) put(t *task, tuple Tuple) {
	if len(o.bufs[t.slot]) == 0 {
		o.dirty = append(o.dirty, t)
	}
	o.bufs[t.slot] = append(o.bufs[t.slot], tuple)
	o.n++
}

// flush pushes every buffered slice to its task's queue (blocking for
// backpressure like any push) and settles the producer's emit counter.
func (o *outbox) flush() {
	for _, t := range o.dirty {
		buf := o.bufs[t.slot]
		o.rt.pushN(t, buf, o.class)
		clear(buf)
		o.bufs[t.slot] = buf[:0]
	}
	o.dirty = o.dirty[:0]
	o.n = 0
	o.instr.noteEmit(o.emitted)
	o.emitted = 0
}

// pushN offers a run of same-class tuples to a task's queue, keeping
// the offered/shed accounting exact: every tuple counts as pending and
// offered, and every shed tuple (an offered one or an evicted older one)
// counts as shed exactly once, so admitted = offered − shed always holds.
func (rt *Runtime) pushN(t *task, tuples []Tuple, class TrafficClass) {
	n := int64(len(tuples))
	rt.pending.Add(n)
	t.offered.Add(n)
	rt.offeredAll.Add(n)
	res := t.in.pushN(tuples, class, rt.degraded.Load() > 0)
	if res.shed > 0 {
		// Shed tuples will never be processed: they leave the pending
		// count and join the shed tally.
		shed := int64(res.shed)
		rt.pending.Add(-shed)
		t.shed.Add(shed)
		rt.shedAll.Add(shed)
	}
	t.instr.notePush(n, res)
}

// runTask is the executor loop: a single goroutine owns the task's log,
// state and liveness, so control operations serialize naturally with
// tuple processing. It takes whatever is queued, up to runCap, as one
// run. Output is pushed downstream at three points and never on a timer:
// the end of a run, before a save, before a control reply.
func (rt *Runtime) runTask(t *task) {
	defer rt.execWG.Done()
	out := rt.newOutbox(t)
	subs := rt.subs[t.boltID]
	emit := func(tuple Tuple) {
		tuple.Stream = t.boltID
		// Emissions inherit the class of the tuple being processed, so
		// replay descendants keep their shed immunity downstream.
		out.route(subs, tuple, t.curClass)
	}
	tuples := make([]Tuple, runCap)
	classes := make([]TrafficClass, runCap)
	for {
		env, n := t.in.drain(tuples, classes)
		switch env.kind {
		case ctlRun:
			rt.execRun(t, tuples[:n], classes[:n], out, emit)
			clear(tuples[:n])

		case ctlSave:
			err := rt.saveTask(t)
			if env.done == nil { // RequestSaveByKey's: nobody waits
				t.saveAsked.Store(false)
			} else {
				env.done <- err
			}

		case ctlKill:
			t.dead = true
			rt.cfg.Flight.Note(obs.FlightTaskKill, "", rt.topo.name, t.key, nil)
			env.done <- nil

		case ctlRecover:
			err := rt.recoverTask(t, emit, env.tr, env.traceParent)
			out.flush() // replayed emissions are visible before the reply
			env.done <- err

		case ctlFlush:
			var err error
			if f, ok := t.decl.bolt.(Flusher); ok && !t.dead {
				err = f.Flush(emit)
			}
			out.flush()
			env.done <- err

		case ctlStop:
			t.log = nil
			rt.noteLogged(t)
			env.done <- nil
			return
		}
	}
}

// execRun is the executor body for one run. The run is cut into chunks
// of one traffic class that stop at the save boundary, and each chunk
// goes through input-log append, execute and periodic save exactly as a
// tuple at a time would — recovery replay and exactly-once cannot tell
// the difference. With Config.UpstreamReplay only a dead task's chunks
// are logged. Output is flushed before a save, so nothing finished
// waits behind one and emit-before-snapshot order holds, and at the end
// of the run; the input tuples stay pending until then, so pending
// covers buffered output. Counters are settled once per stretch between
// flushes, from one pair of clock reads.
func (rt *Runtime) execRun(t *task, tuples []Tuple, classes []TrafficClass, out *outbox, emit Emit) {
	saveEvery := 0
	if t.decl.stateful {
		saveEvery = rt.cfg.SaveEveryTuples
	}
	n := len(tuples)
	start, executed := t.instr.runStart(), 0
	for len(tuples) > 0 {
		class, k := classes[0], 1
		for k < len(tuples) && classes[k] == class {
			k++
		}
		saveAt := max(saveEvery, t.saveDue)
		if saveEvery > 0 && !t.dead {
			k = min(k, max(1, saveAt-t.sinceSav))
		}
		chunk := tuples[:k]
		tuples, classes = tuples[k:], classes[k:]
		t.curClass = class
		if t.decl.stateful && (t.dead || !rt.cfg.UpstreamReplay) {
			t.log = append(t.log, chunk...)
		}
		if t.dead {
			continue
		}
		if t.batch != nil {
			rt.noteExecError(t, t.batch.ExecuteBatch(chunk, class, emit))
		} else {
			for i := range chunk {
				rt.noteExecError(t, t.decl.bolt.Execute(chunk[i], emit))
			}
		}
		executed += k
		t.sinceSav += k
		if saveEvery > 0 && t.sinceSav >= saveAt {
			out.flush()
			rt.noteRun(t, start, executed)
			// A periodic save that fails is not fatal, and is not retried on
			// the very next tuple either: each attempt costs a snapshot and
			// a scatter.
			if rt.saveTask(t) != nil {
				t.saveBackoff = min(max(1, 2*t.saveBackoff), saveEvery)
				t.saveDue = t.sinceSav + t.saveBackoff
			}
			start, executed = t.instr.runStart(), 0
		}
	}
	out.flush()
	rt.noteRun(t, start, executed)
	if t.decl.stateful {
		rt.noteLogged(t)
	}
	rt.pending.Add(int64(-n))
}

// noteLogged publishes the input log's length (executor goroutine only,
// so the common case — unchanged, 0 under UpstreamReplay — is one load).
func (rt *Runtime) noteLogged(t *task) {
	n, was := int64(len(t.log)), t.logged.Load()
	if n != was {
		t.logged.Store(n)
		rt.instr.noteLogged(n - was)
	}
}

// noteRun settles one executed stretch of a run: n tuples handled, acked
// and timed from start.
func (rt *Runtime) noteRun(t *task, start int64, n int) {
	if n == 0 {
		return
	}
	t.handled.Add(int64(n))
	t.instr.noteAcks(start, n)
}

func (rt *Runtime) noteExecError(t *task, err error) {
	if err != nil {
		rt.failures.Add(1)
		t.instr.noteExecError()
	}
}

// saveTask lends the bolt's state to the backend as a view and truncates
// the input log (executor goroutine only — the one writer of the store is
// parked here while the view's lease holds it still).
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
	view, err := sb.Store().View()
	if err != nil {
		return fmt.Errorf("save %s: %w", t.key, err)
	}
	t.saveSeq++
	v := state.Version{Timestamp: rt.cfg.Now(), Seq: t.saveSeq}
	err = rt.cfg.Backend.Save(t.key, view, v)
	view.Release()
	if err != nil {
		return fmt.Errorf("save %s: %w", t.key, err)
	}
	t.instr.noteState(view.Len)
	// Truncate in place: the next save interval logs as many tuples again,
	// and regrowing from nil by doubling is that much large-object garbage
	// per save. clear drops the tuples' references.
	clear(t.log)
	t.log = t.log[:0]
	rt.noteLogged(t)
	t.sinceSav, t.saveBackoff, t.saveDue = 0, 0, 0
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
	btr, bparent := tr, parent
	if !tr.Enabled() || !parent.Valid() {
		btr, bparent = nil, obs.SpanContext{}
	}
	view, err := rt.cfg.Backend.Recover(t.key, btr, bparent)
	if err != nil {
		return fmt.Errorf("recover %s: %w", t.key, err)
	}
	err = sb.Store().RestoreView(view)
	view.Release()
	if err != nil {
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
		rt.noteExecError(t, t.decl.bolt.Execute(tuple, emit))
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

// RequestSaveByKey queues a save of the task with the given key on its
// control lane and returns without waiting for it: the executor runs it
// ahead of any queued data, once it is done with what it is doing. Asking
// again while a requested save is still queued does nothing. The save's
// outcome is the backend's to note, as a periodic save's is.
func (rt *Runtime) RequestSaveByKey(key string) error {
	bolt, index, err := rt.taskByKey(key)
	if err != nil {
		return err
	}
	select {
	case <-rt.stopped:
		return fmt.Errorf("%s: %w", key, ErrAlreadyWaited)
	default:
	}
	if t := rt.tasks[bolt][index]; t.saveAsked.CompareAndSwap(false, true) {
		t.in.pushCtl(envelope{kind: ctlSave})
	}
	return nil
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
// recovery plus input-log replay) — the supervisor's and the daemon's
// entry point. With an enabled tracer and a valid parent, the backend
// recovery and the replay are spans of the caller's trace.
func (rt *Runtime) RecoverTaskByKey(key string, tr *obs.Tracer, parent obs.SpanContext) error {
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

// TaskStats is a point-in-time view of one task.
type TaskStats struct {
	Key      string
	Bolt     string
	Index    int
	Handled  int64
	Stateful bool
	// Logged is the number of tuples in the task's input log: what a
	// Recover in this runtime would replay on top of the last save. With
	// Config.UpstreamReplay it is 0 for a live task.
	Logged int64
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
				Logged:   t.logged.Load(),
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
		fmt.Sprintf("reason=%s policy=%s watermark=%.2f", reason, rt.cfg.QueuePolicy, shedWatermark), nil)
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
