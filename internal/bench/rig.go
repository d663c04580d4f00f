// The rig is the one in-process system under test every stream/recovery
// experiment runs on: an optional Pastry ring with a recovery cluster and
// a seeded (unarmed) chaos plan, a state backend picked by mechanism
// name, and one topology — seq spout → counting bolt → dedupe sink. A
// scenario (matrix, overload, trace, steady, self-heal, chaos) is only
// the fault schedule it arms on the rig and what it reads back; build,
// pump, drain, audit and teardown live here, once.
package bench

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"sr3/internal/checkpoint"
	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/metrics"
	"sr3/internal/recovery"
	"sr3/internal/simnet"
	"sr3/internal/state"
	"sr3/internal/stream"
	"sr3/internal/supervise"
)

// Mechanism names: the rig's backend selector and the matrix's column.
const (
	MechSR3Star     = "sr3-star"
	MechSR3Line     = "sr3-line"
	MechSR3Tree     = "sr3-tree"
	MechCheckpoint  = "checkpoint"
	MechReplication = "replication"
	MechFP4S        = "fp4s"
	// mechMemory keeps snapshots in a map: for cells that measure the
	// tuple plane and never recover.
	mechMemory = "memory"
)

const (
	rigKeys     = 8
	rigShards   = 6
	rigReplicas = 2
	rigNodes    = 24
	// Save cadence shared by the fault sweeps.
	rigSaveEvery = 64
)

// rigOpts is what a scenario chooses about its system under test.
type rigOpts struct {
	seed int64
	// mechanism picks the backend; the SR3 mechanisms and FP4S also get
	// a ring (and a chaos plan on it), the others run ring-less.
	mechanism string
	// nodes sizes the ring (default rigNodes).
	nodes int
	// cfg is the runtime configuration; Backend is filled in here.
	cfg stream.Config
	// delay stalls the counting bolt per tuple, giving it a finite
	// capacity to overload.
	delay time.Duration
	// preload queues tuples [0, preload) before the runtime starts, so a
	// cell times the pipeline and not the pump.
	preload int
}

// rig is one built system under test. Scenarios use its fields directly.
type rig struct {
	ring    *dht.Ring         // nil for ring-less mechanisms
	cluster *recovery.Cluster // nil unless the mechanism is one of SR3's
	chaos   *simnet.Chaos     // attached to ring.Net, unarmed until a scenario arms it
	rt      *stream.Runtime
	counter *countBolt
	sink    *dedupeSink
	started time.Time // just before rt.Start

	in       seqSpout
	pumped   int64
	pumps    sync.WaitGroup
	sup      *supervise.Supervisor
	finished bool
}

const rigTopology = "bench"

var (
	rigCountKey = stream.TaskKey(rigTopology, "count", 0)
	rigSinkKey  = stream.TaskKey(rigTopology, "sink", 0)
)

// sr3Mechanisms maps the SR3 mechanism names onto recovery's.
var sr3Mechanisms = map[string]recovery.Mechanism{
	MechSR3Star: recovery.Star,
	MechSR3Line: recovery.Line,
	MechSR3Tree: recovery.Tree,
}

// newRig builds and starts the system under test. Every caller defers
// Close, which is the only teardown.
func newRig(o rigOpts) (*rig, error) {
	r := &rig{
		counter: &countBolt{store: state.NewMapStore(), delay: o.delay},
		sink:    newDedupeSink(),
	}
	if o.nodes == 0 {
		o.nodes = rigNodes
	}
	mech, isSR3 := sr3Mechanisms[o.mechanism]
	if isSR3 || o.mechanism == MechFP4S {
		ring, err := dht.BuildConverged(dht.DefaultConfig(), o.seed, o.nodes)
		if err != nil {
			return nil, err
		}
		r.ring = ring
		r.chaos = simnet.NewChaos(o.seed)
		ring.Net.SetChaos(r.chaos)
	}
	switch {
	case isSR3:
		r.cluster = recovery.NewCluster(r.ring)
		b := stream.NewSR3Backend(r.cluster, rigShards, rigReplicas)
		b.Mechanism = mech
		// Retries sized to ride out the faults scenarios inject
		// (partitions that heal, transient holder crashes, lossy links).
		b.Options.FailoverRetries = 6
		b.Options.RetryBackoff = 15 * time.Millisecond
		o.cfg.Backend = b
	case o.mechanism == MechFP4S:
		b, err := stream.NewFP4SBackend(r.ring, 4, 8)
		if err != nil {
			return nil, err
		}
		o.cfg.Backend = b
	case o.mechanism == MechCheckpoint:
		o.cfg.Backend = stream.NewCheckpointBackend(checkpoint.NewStore())
	case o.mechanism == MechReplication:
		o.cfg.Backend = stream.NewReplicationBackend()
	case o.mechanism == mechMemory:
		o.cfg.Backend = stream.NewMemoryBackend()
	default:
		return nil, fmt.Errorf("bench: unknown mechanism %q", o.mechanism)
	}

	buf := 1024
	if o.preload > buf {
		buf = o.preload
	}
	r.in = make(seqSpout, buf)
	topo := stream.NewTopology(rigTopology)
	if err := topo.AddSpout("seq", r.in); err != nil {
		return nil, err
	}
	if err := topo.AddBolt("count", r.counter, 1).Fields("seq", 0).Err(); err != nil {
		return nil, err
	}
	if err := topo.AddBolt("sink", r.sink, 1).Global("count").Err(); err != nil {
		return nil, err
	}
	rt, err := stream.NewRuntime(topo, o.cfg)
	if err != nil {
		return nil, err
	}
	r.rt = rt
	r.pump(0, o.preload, 0)
	r.started = time.Now()
	rt.Start()
	return r, nil
}

// seqSpout streams the tuples the scenario pumps; closing it ends the
// stream.
type seqSpout chan stream.Tuple

func (s seqSpout) Next() (stream.Tuple, bool) {
	t, ok := <-s
	return t, ok
}

// seqTuple is the regenerable source: tuple seq is a function of seq
// alone (key k<seq mod rigKeys>, the sequence number), stamped ts.
func seqTuple(seq int, ts int64) stream.Tuple {
	return stream.Tuple{Values: []any{"k" + strconv.Itoa(seq%rigKeys), int64(seq)}, Ts: ts}
}

// pump offers tuples [from, to) to the spout, stamped with the offer
// time. rate is tuples/s; 0 = full speed.
func (r *rig) pump(from, to, rate int) {
	var interval time.Duration
	batch := 1
	if rate > 0 {
		batch = rate / 200
		if batch < 1 {
			batch = 1
		}
		interval = time.Duration(batch) * time.Second / time.Duration(rate)
	}
	for seq := from; seq < to; {
		for i := 0; i < batch && seq < to; i++ {
			r.in <- seqTuple(seq, time.Now().UnixMilli())
			seq++
		}
		if interval > 0 {
			time.Sleep(interval)
		}
	}
	if int64(to) > r.pumped {
		r.pumped = int64(to)
	}
}

// pumpAsync pumps in the background while the scenario injects a fault;
// r.pumps.Wait (or finish) joins it.
func (r *rig) pumpAsync(from, to, rate int) {
	r.pumps.Add(1)
	go func() {
		defer r.pumps.Done()
		r.pump(from, to, rate)
	}()
}

// drain waits for offered tuples to clear the topology.
func (r *rig) drain() {
	time.Sleep(20 * time.Millisecond)
	r.rt.Drain()
}

// saveAll snapshots the operator, retrying: under lossy-link chaos a
// scatter can lose a shard message and the save must be re-attempted.
func (r *rig) saveAll() error {
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if err = r.rt.SaveAll(); err == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("bench: save: %w", err)
}

// owner is the ring node that owns the counting task's state.
func (r *rig) owner() (id.ID, error) {
	nid, ok := r.ring.ClosestLive(id.HashKey(rigCountKey))
	if !ok {
		return id.ID{}, fmt.Errorf("bench: no live owner")
	}
	return nid, nil
}

// killOwner crashes the state owner plus its extra nearest neighbours
// (replica holders) and lets the overlay notice. A no-op without a ring.
func (r *rig) killOwner(extra int) error {
	if r.ring == nil {
		return nil
	}
	owner, err := r.owner()
	if err != nil {
		return err
	}
	r.ring.Fail(owner)
	for _, nid := range r.ring.SortedLiveByDistance(owner) {
		if extra == 0 {
			break
		}
		r.ring.Fail(nid)
		extra--
	}
	r.ring.MaintenanceRound()
	return nil
}

// crashTask kills the counting task and drives its recovery by hand,
// returning the recovery time in ms.
func (r *rig) crashTask() (float64, error) {
	if err := r.rt.Kill("count", 0); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := r.rt.RecoverTask("count", 0); err != nil {
		return 0, err
	}
	return ms(time.Since(start)), nil
}

// supervise puts the cluster (and the runtime's tasks) under a
// supervisor that Close stops. The scenario calls Protect and Start.
func (r *rig) supervise(cfg supervise.Config) *supervise.Supervisor {
	r.sup = supervise.New(r.cluster, cfg)
	r.sup.BindRuntime(r.rt)
	return r.sup
}

// finish stops the supervisor and its detectors, joins background pumps,
// ends the input and waits for the topology to drain and stop.
func (r *rig) finish() error {
	if r.finished {
		return nil
	}
	r.finished = true
	if r.sup != nil {
		r.sup.Stop()
	}
	r.pumps.Wait()
	close(r.in)
	return r.rt.Wait()
}

// Close is the teardown every cell defers, so a failed scenario's early
// return leaks nothing. Idempotent, and a no-op after audit.
func (r *rig) Close() { _ = r.finish() }

// rigAudit is the verdict on a finished run, judged against the counting
// task's own admission ledger so it holds with or without shedding.
type rigAudit struct {
	count stream.TaskOverloadStats
	// ledgerExact: offered = admitted + shed at the operator and
	// runtime-wide, and offered is exactly what was pumped.
	ledgerExact bool
	// missing counts admitted tuples that never reached the sink (net of
	// what the sink's own queue shed); duplicates counts the replay
	// re-deliveries its dedupe absorbed.
	missing, duplicates int64
	// stateExact: the operator's counts are what the admitted tuples
	// imply — the total always, and key by key when nothing was shed.
	stateExact bool
}

// exactlyOnce is the headline verdict: nothing lost, state exact.
func (a rigAudit) exactlyOnce() bool { return a.missing == 0 && a.stateExact }

// audit finishes the run and checks it. A queue that outgrew its bound
// is an error, not a verdict.
func (r *rig) audit() (rigAudit, error) {
	var a rigAudit
	if err := r.finish(); err != nil {
		return a, err
	}
	ov := r.rt.Overload()
	var sinkShed int64
	for _, ts := range ov.Tasks {
		if ts.QueueHighWater > ts.QueueCap {
			return a, fmt.Errorf("bench: task %s queue high-water %d exceeds cap %d", ts.Key, ts.QueueHighWater, ts.QueueCap)
		}
		switch ts.Key {
		case rigCountKey:
			a.count = ts
		case rigSinkKey:
			sinkShed = ts.Shed
		}
	}
	a.ledgerExact = a.count.Offered == a.count.Admitted+a.count.Shed &&
		a.count.Offered == r.pumped &&
		ov.Offered == ov.Admitted+ov.Shed

	distinct, dups := r.sink.delivered()
	a.missing = a.count.Admitted - sinkShed - distinct
	a.duplicates = dups

	var total int64
	perKey := true
	for k := 0; k < rigKeys; k++ {
		var n int64
		if v, ok := r.counter.store.Get("k" + strconv.Itoa(k)); ok {
			parsed, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				return a, err
			}
			n = parsed
		}
		total += n
		want := r.pumped / rigKeys
		if int64(k) < r.pumped%rigKeys {
			want++
		}
		if n != want {
			perKey = false
		}
	}
	a.stateExact = total == a.count.Admitted && (perKey || a.count.Shed > 0)
	return a, nil
}

// countBolt is the rig's stateful operator: per-key running counts over
// a snapshot/restore store, every tuple passed through so the sink sees
// every sequence number.
type countBolt struct {
	store *state.MapStore
	delay time.Duration
}

func (c *countBolt) Execute(t stream.Tuple, emit stream.Emit) error {
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	key := t.StringAt(0)
	n := int64(0)
	if v, ok := c.store.Get(key); ok {
		parsed, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return err
		}
		n = parsed
	}
	c.store.Put(key, []byte(strconv.FormatInt(n+1, 10)))
	emit(stream.Tuple{Values: t.Values, Ts: t.Ts})
	return nil
}

func (c *countBolt) Store() stream.StateStore { return c.store }

// dedupeSink is the exactly-once checker: it records every delivered
// sequence number, counts re-deliveries, and histograms event-time lag
// (first delivery only, so replay does not double-count).
type dedupeSink struct {
	mu   sync.Mutex
	seen map[int64]struct{}
	dups int64
	lag  metrics.LatencyHistogram
}

func newDedupeSink() *dedupeSink { return &dedupeSink{seen: make(map[int64]struct{})} }

func (s *dedupeSink) Execute(t stream.Tuple, _ stream.Emit) error {
	seq := t.IntAt(1)
	s.mu.Lock()
	_, dup := s.seen[seq]
	if dup {
		s.dups++
	} else {
		s.seen[seq] = struct{}{}
	}
	s.mu.Unlock()
	if !dup {
		lag := time.Now().UnixMilli() - t.Ts
		if lag < 0 {
			lag = 0
		}
		s.lag.Record(lag)
	}
	return nil
}

// delivered reports how many distinct sequence numbers arrived and how
// many re-deliveries the dedupe absorbed.
func (s *dedupeSink) delivered() (distinct, dups int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.seen)), s.dups
}

// ms renders a duration as float milliseconds, the unit of every cell.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// waitUntil polls cond every few milliseconds for up to d.
func waitUntil(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("timed out after %v", d)
}
