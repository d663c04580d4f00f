package stream

import (
	"sync"
)

// QueuePolicy selects what a bounded task queue does when a data tuple
// arrives and the queue is full.
type QueuePolicy int

const (
	// QueueBlock makes the sender wait for a free slot — credit-based
	// backpressure: each queue slot is a credit, the producer stalls
	// until the consumer returns one. The default, matching the
	// pre-overload-control runtime.
	QueueBlock QueuePolicy = iota
	// QueueShedOldest drops the oldest queued ingest-class tuple to
	// admit the new one (newest data wins; bounded staleness). Replay-
	// class tuples are never shed — they are required for exactly-once
	// recovery — so when only replay tuples are queued the incoming
	// ingest tuple is shed instead.
	QueueShedOldest
	// QueueShedPriority sheds by traffic class: an incoming replay-
	// class tuple evicts the oldest queued ingest-class tuple; an
	// incoming ingest-class tuple is shed when the queue is full
	// (queued work wins ties).
	QueueShedPriority
)

func (p QueuePolicy) String() string {
	switch p {
	case QueueBlock:
		return "block"
	case QueueShedOldest:
		return "shed-oldest"
	case QueueShedPriority:
		return "shed-priority"
	default:
		return "unknown"
	}
}

// TrafficClass labels a tuple's provenance for admission decisions.
// Replay traffic (input-log replay during recovery, and everything it
// emits downstream) outranks new ingest: shedding it would break the
// exactly-once recovery contract, while shedding fresh ingest under
// overload is exactly what load shedding is for.
type TrafficClass int8

const (
	// ClassIngest marks new spout tuples and their descendants.
	ClassIngest TrafficClass = iota
	// ClassReplay marks input-log replay tuples and their descendants.
	ClassReplay
)

// pushResult reports what the queue did with one pushN.
type pushResult struct {
	// shed counts dropped tuples: offered ones the policy refused plus
	// older queued ones evicted to make room. Either way each is one
	// debit on the offered = admitted + shed ledger.
	shed int
	// depth and high are the data occupancy after the push and the
	// largest ever observed, in tuples.
	depth, high int
	// blockedNs is the time from the first wait for a free slot to the end
	// of the push — the emit-side backpressure signal; 0 if nothing waited.
	blockedNs int64
}

// taskQueue is one task's input queue: an unbounded control lane plus a
// bounded data ring of (tuple, class) entries, held as two parallel
// slices so a run of tuples goes in and out with copy. The executor
// always drains the control lane first (kill/recover/save/flush/stop
// never sit behind a backlog of data tuples), then the data ring. The
// ring enforces the configured capacity exactly, in tuples — its
// occupancy can never exceed it — and overflow is resolved by the queue
// policy.
type taskQueue struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond

	ctl     []envelope // control lane, FIFO, unbounded
	tuples  []Tuple    // data ring
	classes []TrafficClass
	head    int
	n       int

	policy    QueuePolicy
	watermark int // degraded-mode ingest admission bound (tuples)

	highWater int // largest data occupancy ever observed
}

func newTaskQueue(capacity int, policy QueuePolicy, watermark int) *taskQueue {
	if capacity <= 0 {
		capacity = 1
	}
	if watermark <= 0 || watermark > capacity {
		watermark = capacity
	}
	q := &taskQueue{
		tuples:    make([]Tuple, capacity),
		classes:   make([]TrafficClass, capacity),
		policy:    policy,
		watermark: watermark,
	}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

func (q *taskQueue) capacity() int { return len(q.tuples) }

// pushCtl appends a control envelope; it never blocks and never sheds.
func (q *taskQueue) pushCtl(env envelope) {
	q.mu.Lock()
	q.ctl = append(q.ctl, env)
	q.mu.Unlock()
	q.notEmpty.Signal()
}

// pushN offers a run of same-class tuples under one lock acquisition:
// what fits is admitted at once, and the queue policy decides the rest
// tuple by tuple — wait for a slot, evict the oldest queued ingest tuple,
// or drop the offered one — so a run larger than the capacity goes in
// pieces and the occupancy never exceeds it. degraded applies the
// watermark admission bound to ingest-class runs (the runtime's
// degraded-service shed mode). Replay-class tuples are never dropped.
// The clock is read only when the push is about to wait.
func (q *taskQueue) pushN(tuples []Tuple, class TrafficClass, degraded bool) pushResult {
	var res pushResult
	var waitStart int64
	// Degraded-service mode: new ingest is admitted only below the
	// watermark, leaving the headroom above it for replay and recovery
	// traffic; past it the run is shed whatever the policy.
	bound, shedAtBound := len(q.tuples), false
	if degraded && class == ClassIngest {
		bound, shedAtBound = q.watermark, true
	}
	q.mu.Lock()
	for len(tuples) > 0 {
		if room := bound - q.n; room > 0 {
			k := min(room, len(tuples))
			q.appendLocked(tuples[:k], class)
			tuples = tuples[k:]
			continue
		}
		switch {
		case shedAtBound:
			// Degraded and at the watermark: the rest of the run is shed.
		case q.policy == QueueShedOldest,
			q.policy == QueueShedPriority && class == ClassReplay:
			if q.evictOldestIngestLocked() {
				res.shed++
				q.appendLocked(tuples[:1], class)
				tuples = tuples[1:]
				continue
			}
			// Full of replay tuples: an offered ingest run is shed, an
			// offered replay run waits.
			if class == ClassReplay {
				waitStart = q.waitLocked(waitStart)
				continue
			}
		case q.policy == QueueShedPriority:
			// Offered ingest against a full queue: queued work wins.
		default:
			waitStart = q.waitLocked(waitStart)
			continue
		}
		res.shed += len(tuples)
		break
	}
	res.depth, res.high = q.n, q.highWater
	q.mu.Unlock()
	q.notEmpty.Signal()
	if waitStart != 0 {
		res.blockedNs = nowNano() - waitStart
	}
	return res
}

// waitLocked parks the pusher until the executor frees a slot, stamping
// the start of the blocked stretch on its first wait. Caller holds q.mu.
func (q *taskQueue) waitLocked(waitStart int64) int64 {
	if waitStart == 0 {
		waitStart = nowNano()
	}
	q.notEmpty.Signal() // what this push already admitted must be seen
	q.notFull.Wait()
	return waitStart
}

// appendLocked copies a run in at the tail; caller holds q.mu and has
// verified the room.
func (q *taskQueue) appendLocked(tuples []Tuple, class TrafficClass) {
	tail := (q.head + q.n) % len(q.tuples)
	k := copy(q.tuples[tail:], tuples)
	copy(q.tuples, tuples[k:])
	for i := range tuples {
		q.classes[(tail+i)%len(q.classes)] = class
	}
	q.n += len(tuples)
	if q.n > q.highWater {
		q.highWater = q.n
	}
}

// evictOldestIngestLocked drops the oldest ingest-class tuple from the
// ring, reporting whether one existed. The replay tuples queued ahead of
// it move up one slot to close the gap, preserving order. Caller holds
// q.mu.
func (q *taskQueue) evictOldestIngestLocked() bool {
	size := len(q.tuples)
	for i := 0; i < q.n; i++ {
		if q.classes[(q.head+i)%size] != ClassIngest {
			continue
		}
		for j := i; j > 0; j-- {
			to, from := (q.head+j)%size, (q.head+j-1)%size
			q.tuples[to], q.classes[to] = q.tuples[from], q.classes[from]
		}
		q.tuples[q.head] = Tuple{}
		q.head = (q.head + 1) % size
		q.n--
		return true
	}
	return false
}

// drain blocks until the queue holds something and hands it over under
// one lock acquisition, control lane first: either the oldest control
// envelope (n = 0), or the n oldest data entries, at most len(tuples),
// copied into tuples and classes (ctl.kind = ctlRun).
func (q *taskQueue) drain(tuples []Tuple, classes []TrafficClass) (ctl envelope, n int) {
	q.mu.Lock()
	for len(q.ctl) == 0 && q.n == 0 {
		q.notEmpty.Wait()
	}
	if len(q.ctl) > 0 {
		ctl = q.ctl[0]
		q.ctl[0] = envelope{}
		q.ctl = q.ctl[1:]
		q.mu.Unlock()
		return ctl, 0
	}
	n = min(q.n, len(tuples))
	k := min(n, len(q.tuples)-q.head) // entries before the ring wraps
	copy(tuples, q.tuples[q.head:q.head+k])
	copy(tuples[k:n], q.tuples)
	copy(classes, q.classes[q.head:q.head+k])
	copy(classes[k:n], q.classes)
	clear(q.tuples[q.head : q.head+k]) // drop the ring's references to the values
	clear(q.tuples[:n-k])
	q.head = (q.head + n) % len(q.tuples)
	q.n -= n
	q.mu.Unlock()
	q.notFull.Broadcast()
	return envelope{}, n
}

// depth reports the current data occupancy (control lane excluded —
// capacity and shedding govern data tuples only).
func (q *taskQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// high reports the largest data occupancy ever observed.
func (q *taskQueue) high() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.highWater
}
