// Package supervise closes SR3's self-healing loop: it subscribes to
// φ-accrual failure-detector verdicts (internal/detector), maps each dead
// node to the protected states and stream tasks it owned, and drives the
// full recovery pipeline — replacement selection, star/line/tree
// collection, task restore with input-log replay, and background replica
// repair back to the configured replication factor — with no manual
// trigger anywhere.
//
// The division of labor: the detector notices silence and declares
// deaths; the supervisor reacts to verdicts (owner-level recovery); the
// repair loop runs on a timer and heals provider-level attrition that
// never produced a verdict the supervisor acted on (plus placement
// republish and version-scoped shard GC, via Cluster.RepairApp).
package supervise

import (
	"fmt"
	"io"
	"sync"
	"time"

	"sr3/internal/detector"
	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/overload"
	"sr3/internal/recovery"
)

// TaskRuntime is the slice of the stream runtime the supervisor drives
// for task-bound states (implemented by *stream.Runtime).
type TaskRuntime interface {
	KillByKey(taskKey string) error
	RecoverTaskByKey(taskKey string) error
}

// TracedTaskRuntime is the traced extension of TaskRuntime: the restore
// runs under the given trace parent, so the backend recovery and the
// input-log replay appear in the supervisor's selfheal trace.
// *stream.Runtime implements it; the supervisor falls back to plain
// RecoverTaskByKey when the bound runtime does not.
type TracedTaskRuntime interface {
	RecoverTaskByKeyTraced(taskKey string, tr *obs.Tracer, parent obs.SpanContext) error
}

// DegradedRuntime is the optional overload-control slice of the runtime:
// with Config.ShedDuringRecovery set, the supervisor holds the runtime in
// degraded-service mode while it works a verdict, so ingest sheds at the
// queue watermark instead of competing with replay for executor capacity.
// Enter/Exit are refcounted by the implementation, so overlapping holds
// nest. *stream.Runtime implements it; runtimes that do not are simply
// never shed.
type DegradedRuntime interface {
	EnterDegraded(reason string)
	ExitDegraded()
}

// StateSpec describes one protected application state.
type StateSpec struct {
	// App is the state's name — for task-bound states, the task key.
	App string
	// Mechanism forces one recovery mechanism; 0 applies the §3.7
	// selection heuristic using StateBytes.
	Mechanism recovery.Mechanism
	// Options tunes the recovery run; the zero value means defaults.
	Options recovery.Options
	// StateBytes sizes the state for the selection heuristic.
	StateBytes int64
	// TaskBound marks states owned by a live stream task: recovery then
	// goes through TaskRuntime (kill + recover + input-log replay)
	// instead of a bare cluster recovery.
	TaskBound bool
}

// Config tunes a supervisor.
type Config struct {
	// Detector tunes the φ-accrual failure detectors (one per node).
	Detector detector.Config
	// RepairInterval is the background replica-repair period
	// (default 250ms).
	RepairInterval time.Duration
	// DisableRepairLoop turns off the periodic repair ticker (verdict
	// handling still repairs affected apps); tests drive RepairTick
	// directly.
	DisableRepairLoop bool
	// Now injects the clock (default time.Now).
	Now func() time.Time
	// Tracer, when non-nil, wraps every handled verdict in a selfheal
	// root span with detect/enqueue/recover/replay/reprotect children —
	// one trace per recovery (internal/obs). It is also handed to the
	// detectors (unless Detector.Tracer is set separately).
	Tracer *obs.Tracer
	// Flight, when non-nil, receives verdict / recovery events and is
	// dumped whenever a verdict leaves specs unrecovered (the failure
	// post-mortem). Nil disables flight journaling.
	Flight *obs.FlightRecorder
	// FlightDump, when non-nil, receives the flight journal as JSON
	// lines at each failure dump (e.g. a log file or stderr).
	FlightDump io.Writer
	// Escalation tunes gray-failure handling: how long a degraded peer
	// may stay slow before it is killed (escalation.go). The zero value
	// reroutes recovery traffic but never escalates.
	Escalation EscalationPolicy
	// ShedDuringRecovery turns on degraded-service mode while a verdict
	// is being worked: the bound runtime (when it implements
	// DegradedRuntime) sheds ingest at the queue watermark for exactly
	// the window between verdict pickup and the last spec's recovery
	// settling. Replay and shard-transfer traffic is never shed.
	ShedDuringRecovery bool
	// RetryBudget, when non-nil, gates recovery retry attempts: each
	// withRetry pass after the first spends a token, and recovered specs
	// earn tokens back. It is also handed down to cluster recoveries as
	// Options.RetryBudget (unless the spec set its own), so one budget
	// caps the whole control plane's retry amplification during a mass
	// failure. Nil keeps unbudgeted retries.
	RetryBudget *overload.Budget
}

func (c Config) withDefaults() Config {
	if c.RepairInterval <= 0 {
		c.RepairInterval = 250 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Event records one handled node death for one protected state — the
// source for detection-latency and MTTR measurements.
type Event struct {
	App         string
	Node        id.ID // the dead node (state owner)
	Replacement id.ID
	Mechanism   recovery.Mechanism
	TaskBound   bool
	// DetectedAt is when the verdict reached the supervisor;
	// RecoveredAt when the state was rebuilt at the replacement;
	// ReprotectedAt when replication was back at r.
	DetectedAt    time.Time
	RecoveredAt   time.Time
	ReprotectedAt time.Time
	Err           error
	// Trace is the selfheal trace ID for this recovery (0 untraced) —
	// the join key into the tracer's collector.
	Trace uint64
}

// Supervisor owns the detectors, the verdict queue and the repair loop
// for one cluster.
type Supervisor struct {
	cluster *recovery.Cluster
	cfg     Config
	runtime TaskRuntime

	mu        sync.Mutex
	specs     map[string]StateSpec
	detectors map[id.ID]*detector.Detector
	handled   map[id.ID]bool
	// gray tracks degraded peers for the escalation policy
	// (escalation.go).
	gray     map[id.ID]*grayState
	events   []Event
	lastDump []obs.FlightEvent
	started  bool

	verdicts chan verdict
	stop     chan struct{}
	wg       sync.WaitGroup
}

type verdict struct {
	node id.ID
	at   time.Time
	// trace is the detector's pre-allocated root context (zero when
	// tracing is off or the verdict came from the repair backstop);
	// silentSince starts the retroactive detect span.
	trace       obs.SpanContext
	silentSince time.Time
}

// New creates a supervisor for the cluster. Call Protect for each state,
// optionally BindRuntime, then Start.
func New(cluster *recovery.Cluster, cfg Config) *Supervisor {
	return &Supervisor{
		cluster:   cluster,
		cfg:       cfg.withDefaults(),
		specs:     make(map[string]StateSpec),
		detectors: make(map[id.ID]*detector.Detector),
		handled:   make(map[id.ID]bool),
		gray:      make(map[id.ID]*grayState),
		verdicts:  make(chan verdict, 1024),
	}
}

// BindRuntime attaches the stream runtime used for task-bound states.
func (s *Supervisor) BindRuntime(rt TaskRuntime) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runtime = rt
}

// Protect registers (or updates) a state under supervision.
func (s *Supervisor) Protect(spec StateSpec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.specs[spec.App] = spec
}

// Protected lists the supervised state names.
func (s *Supervisor) Protected() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.specs))
	for app := range s.specs {
		out = append(out, app)
	}
	return out
}

// Start attaches a φ-accrual detector to every live ring node, subscribes
// to their verdicts, and launches the verdict worker plus the periodic
// repair loop. Idempotent per supervisor.
func (s *Supervisor) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return nil
	}
	s.started = true
	s.stop = make(chan struct{})
	s.mu.Unlock()

	dcfg := s.cfg.Detector
	if dcfg.Tracer == nil {
		dcfg.Tracer = s.cfg.Tracer
	}
	for _, nid := range s.cluster.Ring.LiveIDs() {
		node := s.cluster.Ring.Node(nid)
		if node == nil {
			continue
		}
		d := detector.New(node, dcfg)
		observer := nid
		d.OnTransition(func(tr detector.Transition) {
			s.handleTransition(observer, tr)
		})
		d.OnDeadReport(func(rep detector.DeathReport) {
			select {
			case s.verdicts <- verdict{
				node: rep.Peer, at: rep.DetectedAt,
				trace: rep.Trace, silentSince: rep.SilentSince,
			}:
			default: // queue full: the repair loop is the backstop
			}
		})
		s.mu.Lock()
		s.detectors[nid] = d
		s.mu.Unlock()
		d.Start()
	}

	s.wg.Add(1)
	go s.verdictWorker()
	if !s.cfg.DisableRepairLoop {
		s.wg.Add(1)
		go s.repairLoop()
	}
	return nil
}

// Stop halts detectors, the verdict worker and the repair loop.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	stop := s.stop
	detectors := make([]*detector.Detector, 0, len(s.detectors))
	for _, d := range s.detectors {
		detectors = append(detectors, d)
	}
	s.mu.Unlock()

	for _, d := range detectors {
		d.Stop()
	}
	close(stop)
	s.wg.Wait()
}

// Events returns a snapshot of the handled-death log.
func (s *Supervisor) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Detector exposes the detector attached to one node (benchmarks read
// per-node stats through this).
func (s *Supervisor) Detector(nid id.ID) *detector.Detector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.detectors[nid]
}

func (s *Supervisor) verdictWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case v := <-s.verdicts:
			s.handleDeath(v)
		}
	}
}

func (s *Supervisor) repairLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.RepairTick()
		}
	}
}

// RepairTick runs one background maintenance round: overlay keep-alive
// repair, then a replica-repair pass over every protected state. Exposed
// so tests can drive maintenance deterministically.
//
// States whose owner is dead with the verdict still pending are skipped:
// the owner transition (recovery, task restart, MTTR accounting) belongs
// to the detector→verdict path, and letting the timer race it would hide
// owner deaths from the supervisor — the repair pass would silently
// reassign the placement before the verdict lands. For such states the
// tick instead re-enqueues a verdict, backstopping a dropped queue entry
// or an exhausted retry. Once the verdict path has had its turn, repair
// converges whatever is left (including a stale republish that raced the
// recovery and reinstated the dead owner).
func (s *Supervisor) RepairTick() {
	s.cluster.Ring.MaintenanceRound()
	for _, app := range s.Protected() {
		p, err := s.lookup(app)
		if err != nil {
			continue
		}
		if !s.repairAllowed(p) {
			select {
			case s.verdicts <- verdict{node: p.Owner, at: s.cfg.Now()}:
			default:
			}
			continue
		}
		_, _ = s.cluster.RepairApp(app)
	}
}

// repairAllowed reports whether a repair pass (which reassigns dead
// owners) may touch a state right now: yes when the owner is alive, or
// when the owner's death has already been through the verdict path.
func (s *Supervisor) repairAllowed(p placement) bool {
	if s.cluster.Ring.Net.Alive(p.Owner) {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handled[p.Owner]
}

// handleDeath processes one verdict: recover every protected state the
// dead node owned, then repair replication for every state it served.
//
// The node is marked handled only AFTER every spec is processed: the mark
// is what re-opens background repair for the dead node's states
// (repairAllowed), and flipping it early would let the repair loop migrate
// ownership of a not-yet-visited state out from under this very verdict.
// A failed spec leaves the mark unset so a queued duplicate verdict — or
// the repair tick's backstop re-enqueue — retries once the overlay has
// settled further. The verdict worker is single-goroutine, so the late
// mark cannot double-process a death.
func (s *Supervisor) handleDeath(v verdict) {
	s.mu.Lock()
	if s.handled[v.node] {
		s.mu.Unlock()
		return
	}
	specs := make([]StateSpec, 0, len(s.specs))
	for _, spec := range s.specs {
		specs = append(specs, spec)
	}
	rt := s.runtime
	s.mu.Unlock()

	// The dead node's detector can never recant a degraded report it
	// made about someone else; drop it from every gray reporter set.
	s.dropObserver(v.node)

	s.cfg.Flight.Note(obs.FlightVerdict, v.node.Short(), "",
		fmt.Sprintf("specs=%d", len(specs)), nil)

	// Degraded-service window: shed ingest for exactly as long as this
	// verdict's recoveries are in flight, then drain. The runtime hold is
	// refcounted.
	if s.cfg.ShedDuringRecovery {
		if dr, ok := rt.(DegradedRuntime); ok {
			dr.EnterDegraded("verdict:" + v.node.Short())
			defer dr.ExitDegraded()
		}
	}

	// Adopt the detector's pre-allocated trace: the root span opens at
	// the start of the silence window, so its duration is the MTTR, with
	// the detect window and the queue wait recorded retroactively as its
	// first children. Duplicate verdicts for the same death (every
	// detector declares it) are dropped above before touching the trace,
	// so exactly one root gets records. The verdict's times are read off
	// the detector's clock and the trace may run on another (a test's
	// virtual one), so the two windows keep their lengths and end on the
	// tracer's clock, now.
	tr := s.cfg.Tracer
	var root *obs.Span
	if v.trace.Valid() {
		wait := max(s.cfg.Now().Sub(v.at), 0)
		var silence time.Duration
		if !v.silentSince.IsZero() {
			silence = v.at.Sub(v.silentSince)
		}
		end := tr.Now()
		at := end.Add(-wait)
		root = tr.StartRootAt(v.trace, obs.PhaseSelfHeal, at.Add(-silence))
		root.SetStr("node", v.node.Short())
		if !v.silentSince.IsZero() {
			tr.RecordSpan(v.trace, obs.PhaseDetect, at.Add(-silence), at,
				obs.Str("peer", v.node.Short()))
		}
		tr.RecordSpan(v.trace, obs.PhaseEnqueue, at, end)
	}
	rootCtx := root.Ctx()

	// The transport may not have the node marked down yet when the
	// verdict raced a chaos restart; trust the quorum verdict.
	allOK := true
	for _, spec := range specs {
		p, err := s.lookup(spec.App)
		if err != nil {
			s.record(Event{App: spec.App, Node: v.node, DetectedAt: v.at, Err: err, Trace: rootCtx.Trace})
			allOK = false
			continue
		}
		servedHere := false
		for _, h := range p.Holders() {
			if h == v.node {
				servedHere = true
				break
			}
		}
		if p.Owner == v.node {
			if err := s.recoverState(spec, v, rt, rootCtx); err != nil {
				allOK = false
			}
		} else if servedHere && s.repairAllowed(p) {
			// Provider-level loss: replication degraded, repair it now
			// rather than waiting for the next timer tick. Never while a
			// different, dead owner's verdict is still pending, though —
			// the repair would migrate ownership out from under it.
			rp := tr.StartSpan(rootCtx, obs.PhaseReprotect)
			rp.SetStr("app", spec.App)
			_, err := s.cluster.RepairApp(spec.App)
			rp.EndErr(err)
		}
	}
	root.SetInt("specs", int64(len(specs)))
	if !allOK {
		root.SetStr("err", "some specs failed; verdict retryable")
		s.dumpFlight(v)
	}
	root.End()
	if allOK {
		s.mu.Lock()
		s.handled[v.node] = true
		s.mu.Unlock()
	}
}

// InjectVerdict enqueues a synthetic death verdict for node, as a
// quorum of detectors would — the deterministic entry point for
// integration tests, which want the full verdict→recover→reprotect
// pipeline (and its trace) without waiting for wall-clock φ accrual.
func (s *Supervisor) InjectVerdict(node id.ID) {
	since := s.cfg.Now()
	v := verdict{
		node:        node,
		silentSince: since,
		at:          s.cfg.Now(),
		trace:       s.cfg.Tracer.NewRootContext(),
	}
	select {
	case s.verdicts <- v:
	default:
	}
}

// recoverAttempts bounds the per-verdict retry loop. Each attempt is
// preceded by an overlay maintenance round: the usual failure cause is a
// dead node still sitting in the replacement's leaf set, which the round
// scrubs out.
const recoverAttempts = 4

func (s *Supervisor) withRetry(f func() error) error {
	var err error
	for i := 0; i < recoverAttempts; i++ {
		// Retries (passes after the first) are funded by the supervisor's
		// retry budget; on an empty bucket the loop fails fast with the
		// last real error rather than piling more load on the cluster.
		if i > 0 && !s.cfg.RetryBudget.Allow() {
			return fmt.Errorf("retry budget exhausted after %d attempts: %w", i, err)
		}
		s.cluster.Ring.MaintenanceRound()
		if err = f(); err == nil {
			s.cfg.RetryBudget.Earn()
			return nil
		}
	}
	return err
}

// recoverState rebuilds one dead-owner state and re-protects it, with
// its spans parented on the verdict's selfheal root. The returned error
// (also recorded on the event) keeps the verdict retryable.
func (s *Supervisor) recoverState(spec StateSpec, v verdict, rt TaskRuntime, parent obs.SpanContext) error {
	ev := Event{App: spec.App, Node: v.node, DetectedAt: v.at, TaskBound: spec.TaskBound, Trace: parent.Trace}
	mech, opts := s.plan(spec)
	ev.Mechanism = mech
	tr := s.cfg.Tracer

	if spec.TaskBound && rt != nil {
		// Stream task: kill the executor (its in-memory state is on the
		// dead owner), then restore through the backend — which runs the
		// cluster recovery — and replay the input log.
		if err := rt.KillByKey(spec.App); err != nil {
			ev.Err = fmt.Errorf("supervise kill %q: %w", spec.App, err)
			s.record(ev)
			return ev.Err
		}
		recoverTask := func() error { return rt.RecoverTaskByKey(spec.App) }
		if trt, ok := rt.(TracedTaskRuntime); ok && parent.Valid() {
			recoverTask = func() error { return trt.RecoverTaskByKeyTraced(spec.App, tr, parent) }
		}
		if err := s.withRetry(recoverTask); err != nil {
			ev.Err = fmt.Errorf("supervise recover %q: %w", spec.App, err)
			s.record(ev)
			return ev.Err
		}
		ev.RecoveredAt = s.cfg.Now()
		// The backend's recovery rebuilt the snapshot but the placement
		// still names the dead owner: repair reassigns it and restores r
		// replicas from the survivors.
		rp := tr.StartSpan(parent, obs.PhaseReprotect)
		rp.SetStr("app", spec.App)
		err := s.withRetry(func() error {
			_, e := s.cluster.RepairApp(spec.App)
			return e
		})
		rp.EndErr(err)
		if err != nil {
			ev.Err = fmt.Errorf("supervise reprotect %q: %w", spec.App, err)
			s.record(ev)
			return ev.Err
		}
		if p, err := s.lookup(spec.App); err == nil {
			ev.Replacement = p.Owner
		}
		ev.ReprotectedAt = s.cfg.Now()
		s.record(ev)
		return nil
	}

	if opts.Tracer == nil {
		opts.Tracer = tr
	}
	opts.TraceParent = parent
	if opts.RetryBudget == nil {
		opts.RetryBudget = s.cfg.RetryBudget
	}
	var res recovery.Result
	err := s.withRetry(func() error {
		r, v, e := s.cluster.RecoverAndReprotect(spec.App, mech, opts)
		v.Release() // the re-save borrowed the view; nothing here restores from it
		res = r
		return e
	})
	if err != nil {
		ev.Err = fmt.Errorf("supervise recover %q: %w", spec.App, err)
		s.record(ev)
		return ev.Err
	}
	ev.Replacement = res.Replacement
	ev.RecoveredAt = s.cfg.Now()
	ev.ReprotectedAt = ev.RecoveredAt // re-save happened inside RecoverAndReprotect
	s.record(ev)
	return nil
}

// plan resolves the mechanism and options for a spec (§3.7 heuristic when
// unforced).
func (s *Supervisor) plan(spec StateSpec) (recovery.Mechanism, recovery.Options) {
	if spec.Mechanism != 0 {
		opts := spec.Options
		if opts == (recovery.Options{}) {
			opts = recovery.DefaultOptions()
		}
		return spec.Mechanism, opts
	}
	d := recovery.Select(recovery.Requirements{StateBytes: spec.StateBytes})
	return d.Mechanism, d.Options
}

func (s *Supervisor) lookup(app string) (placement, error) {
	anyNode, err := s.cluster.Ring.AnyLive()
	if err != nil {
		return placement{}, err
	}
	p, err := s.cluster.Manager(anyNode.ID()).LookupPlacement(app)
	if err != nil {
		return placement{}, err
	}
	return placement{Owner: p.Owner, holders: p.Holders()}, nil
}

// placement is the narrow view of a shard placement the supervisor needs.
type placement struct {
	Owner   id.ID
	holders []id.ID
}

func (p placement) Holders() []id.ID { return p.holders }

func (s *Supervisor) record(ev Event) {
	kind := obs.FlightRecoveryOK
	var detail string
	if ev.Mechanism != 0 {
		detail = ev.Mechanism.String()
	}
	if ev.Replacement != id.Zero {
		detail += " -> " + ev.Replacement.Short()
	}
	if ev.Err != nil {
		kind = obs.FlightRecoveryFail
	}
	s.cfg.Flight.Note(kind, ev.Node.Short(), ev.App, detail, ev.Err)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, ev)
}

// dumpFlight snapshots the flight journal after a verdict that left specs
// unrecovered: the dump mark lands in the journal itself, the snapshot is
// kept for PostMortem, and — when configured — the whole journal goes out
// as JSON lines on cfg.FlightDump.
func (s *Supervisor) dumpFlight(v verdict) {
	f := s.cfg.Flight
	if f == nil {
		return
	}
	f.Note(obs.FlightDumpMark, v.node.Short(), "",
		"verdict left specs unrecovered", nil)
	snap := f.Events()
	if s.cfg.FlightDump != nil {
		_ = f.WriteJSON(s.cfg.FlightDump)
	}
	// Publish the snapshot last: PostMortem readers polling for it must
	// not observe it before the streamed copy is complete.
	s.mu.Lock()
	s.lastDump = snap
	s.mu.Unlock()
}

// PostMortem returns the flight-recorder snapshot taken at the most
// recent failed verdict, oldest event first — nil when every verdict so
// far recovered cleanly (or no flight recorder is configured).
func (s *Supervisor) PostMortem() []obs.FlightEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.FlightEvent(nil), s.lastDump...)
}
