// Package detector implements a φ-accrual failure detector (Hayashibara
// et al., "The φ Accrual Failure Detector", SRDS 2004) for the SR3
// overlay. Every node probes its Pastry leaf set with periodic
// heartbeats over the ordinary transport seam, feeds the inter-arrival
// history of each peer into a sliding statistical window, and converts
// silence into a continuously growing suspicion level
//
//	φ(t) = -log10( P(arrival later than t) )
//
// under a normal model of the observed inter-arrival distribution.
// When φ crosses the configured threshold the node suspects the peer
// and gossips the suspicion to its leaf set; once a quorum of distinct
// suspecters agrees (self-confirmation included), the peer is declared
// dead, the verdict is gossiped as an obituary, and the death hooks
// fire — this is what drives the auto-recovery supervisor
// (internal/supervise) without any manual Recover call.
//
// Probing is leaf-set-scoped, so per-node detection cost stays
// O(|leaf set|) regardless of overlay size, matching the paper's
// reliance on Pastry leaf-set liveness (§3.2) while replacing its
// binary ping timeout with an adaptive accrual estimate.
package detector

import (
	"fmt"
	"sync"
	"time"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/simnet"
)

// Message kinds on the transport. They share the "sr3." prefix with the
// recovery layer so chaos plans scoped to SR3 traffic also exercise the
// detector (and crash schedules can count heartbeats).
const (
	kindProbe    = "sr3.hb.probe"
	kindSuspect  = "sr3.hb.suspect"
	kindObituary = "sr3.hb.obituary"

	probeSize  = 48
	gossipSize = 48 + id.Bytes + 8

	// reprobeEvery is the tick period at which declared-dead peers are
	// probed again, so a node revived after a chaos downtime (or an
	// operator restart) is eventually noticed and un-declared.
	reprobeEvery = 8

	// windowSize bounds the inter-arrival history per peer.
	windowSize = 128
	// minStddevDiv floors the modeled inter-arrival deviation at
	// Interval/minStddevDiv, so a perfectly regular in-process transport
	// does not make φ explode on microsecond jitter.
	minStddevDiv = 4
	// degradedAfter is the consecutive-reply hysteresis for entering and
	// leaving the degraded tier (gray.go).
	degradedAfter = 2
)

// Config tunes one detector.
type Config struct {
	// Interval is the heartbeat probe period (default 50ms).
	Interval time.Duration
	// Threshold is the φ level at which a peer becomes suspected
	// (default 8 ≈ one-in-10⁸ chance the peer is merely slow).
	Threshold float64
	// Quorum is how many distinct suspecters (this node included) must
	// agree before a suspect is declared dead (default 2). A crashed
	// node can neither gossip nor receive suspicions, so with Quorum≥2
	// an isolated node cannot spuriously declare its whole leaf set
	// dead. Use 1 only in two-node deployments.
	Quorum int
	// DegradedRTT is the probe round trip above which a reply counts as
	// slow; degradedAfter consecutive slow replies move the peer to
	// StateDegraded (default: Interval).
	DegradedRTT time.Duration
	// MinDeadSilence floors how long a peer must be silent before this
	// detector declares it dead, regardless of φ and quorum (default
	// 3×Interval). For peers with measured RTTs the effective floor is
	// max(MinDeadSilence, 4×mean RTT) — see deadFloorLocked. This is the
	// gray-failure guard: without it, the onset of a processing slowdown
	// is indistinguishable from a crash and gets a spurious kill.
	MinDeadSilence time.Duration
	// Now injects the clock (default time.Now).
	Now func() time.Time
	// Tracer, when non-nil, pre-allocates a trace root for every death
	// verdict, so the silence window, the supervisor's handling and the
	// recovery land in one connected trace (see DeathReport.Trace).
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.Threshold <= 0 {
		c.Threshold = 8
	}
	if c.Quorum <= 0 {
		c.Quorum = 2
	}
	if c.DegradedRTT <= 0 {
		c.DegradedRTT = c.Interval
	}
	if c.MinDeadSilence <= 0 {
		c.MinDeadSilence = 3 * c.Interval
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats counts detector activity, for tests and the bench harness.
type Stats struct {
	ProbesSent    int64
	Arrivals      int64
	Suspicions    int64 // local φ-threshold crossings
	Declarations  int64 // peers declared dead by this detector
	Suppressed    int64 // declarations withheld by the self-isolation guard
	Degradations  int64 // peers classified slow-but-alive (gray.go)
	FloorDeferred int64 // death verdicts withheld by the silence floor
}

// peerState tracks one probed peer.
type peerState struct {
	win      *arrivalWindow
	last     time.Time // last arrival (or tracking start)
	inflight bool
	hinted   bool // upper layer reported a failed call: halve the threshold
	suspect  bool
	// outOfSet marks a peer the leaf set no longer contains. Overlay
	// maintenance purges crashed nodes from leaf sets quickly — often
	// before φ crosses the threshold — so tracking must survive the
	// purge: the peer keeps being probed and is dropped only when it
	// answers (live churn), never on silence (a death in progress).
	outOfSet bool
	// Gray-failure tier (gray.go): probe round-trip window and the
	// slow/fast hysteresis that moves the peer in and out of
	// StateDegraded.
	rttWin     *arrivalWindow
	degraded   bool
	slowStreak int
	fastStreak int
}

// rttWindow bounds the per-peer probe round-trip history.
const rttWindow = 16

// suspectMsg gossips one suspicion to the leaf set.
type suspectMsg struct {
	Target id.ID
	Phi    float64
}

// obituaryMsg gossips a confirmed death verdict, with the silence start
// the declarer measured: a recipient that never tracked the peer has none
// of its own, and its report may reach the supervisor first.
type obituaryMsg struct {
	Target      id.ID
	SilentSince time.Time
}

// Detector is the per-node φ-accrual failure detector.
type Detector struct {
	node *dht.Node
	cfg  Config

	mu           sync.Mutex
	peers        map[id.ID]*peerState
	suspecters   map[id.ID]map[id.ID]bool // target -> distinct reporters
	dead         map[id.ID]bool
	onDeadRep    []func(DeathReport)
	onTransition []func(Transition)
	stats        Stats
	tickN        uint64

	stop    chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// New attaches a detector to a DHT node and registers its heartbeat and
// gossip handlers. Call Start to begin probing.
func New(node *dht.Node, cfg Config) *Detector {
	d := &Detector{
		node:       node,
		cfg:        cfg.withDefaults(),
		peers:      make(map[id.ID]*peerState),
		suspecters: make(map[id.ID]map[id.ID]bool),
		dead:       make(map[id.ID]bool),
		stop:       make(chan struct{}),
	}
	node.HandleDirect(kindProbe, d.handleProbe)
	node.HandleDirect(kindSuspect, d.handleSuspect)
	node.HandleDirect(kindObituary, d.handleObituary)
	// Liveness hook: when an upper layer (recovery, the
	// maintenance loop) reports a peer unreachable, fast-path the
	// detector's attention to it instead of waiting for φ to accrue.
	node.OnPeerDown(d.Hint)
	return d
}

// DeathReport is the annotated form of a dead verdict, for subscribers
// that trace or time the detection (the supervisor).
type DeathReport struct {
	// Peer is the node declared dead.
	Peer id.ID
	// Trace is a pre-allocated trace root (zero when tracing is off).
	// Nothing is recorded against it by the detector itself; the adopter
	// opens the root span and a retroactive PhaseDetect child, so verdicts
	// nobody adopts leave no orphan records.
	Trace obs.SpanContext
	// SilentSince is when the peer was last heard from — the start of the
	// silence window that φ turned into this verdict. Zero when the peer
	// was never tracked here (obituary for an unknown node).
	SilentSince time.Time
	// DetectedAt is the verdict timestamp on the detector's clock.
	DetectedAt time.Time
}

// OnDeadReport registers a callback fired exactly once per dead verdict
// (the supervisor's subscription point). Callbacks run outside the
// detector lock and must not block for long.
func (d *Detector) OnDeadReport(f func(DeathReport)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onDeadRep = append(d.onDeadRep, f)
}

// Start launches the heartbeat loop.
func (d *Detector) Start() {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(d.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				d.Tick()
			}
		}
	}()
}

// Stop halts probing. Handlers stay registered but inert.
func (d *Detector) Stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	d.mu.Unlock()
	close(d.stop)
	d.wg.Wait()
}

// Stats returns a snapshot of the activity counters.
func (d *Detector) Snapshot() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Dead reports whether the detector has declared peer dead.
func (d *Detector) Dead(peer id.ID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dead[peer]
}

// Hint tells the detector an upper layer observed a failed call to the
// peer: its suspicion threshold is halved until the next heartbeat
// arrival, accelerating detection without letting a single dropped
// message declare a death on its own.
func (d *Detector) Hint(peer id.ID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ps, ok := d.peers[peer]; ok {
		ps.hinted = true
	}
}

// Phi returns the current suspicion level for a tracked peer (0 when
// untracked).
func (d *Detector) Phi(peer id.ID) float64 {
	now := d.cfg.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	ps, ok := d.peers[peer]
	if !ok {
		return 0
	}
	return d.phiLocked(ps, now)
}

// Tick runs one detection round: probe every leaf-set peer that has no
// probe in flight, then re-evaluate every tracked peer's φ, gossiping
// fresh suspicions and declaring quorum-confirmed deaths. Start calls it
// on the heartbeat interval; tests may call it directly.
func (d *Detector) Tick() {
	now := d.cfg.Now()
	targets := d.node.LeafSet()

	var probes []id.ID
	d.mu.Lock()
	d.tickN++
	reprobeDead := d.tickN%reprobeEvery == 0
	inSet := make(map[id.ID]bool, len(targets))
	for _, t := range targets {
		if d.dead[t] {
			continue
		}
		inSet[t] = true
		ps, ok := d.peers[t]
		if !ok {
			// Tracking starts now: the prior window (mean=Interval)
			// stands in until real arrivals accumulate.
			ps = &peerState{win: newArrivalWindow(windowSize), last: now}
			d.peers[t] = ps
		}
		ps.outOfSet = false
		if !ps.inflight {
			ps.inflight = true
			probes = append(probes, t)
			d.stats.ProbesSent++
		}
	}
	// Occasionally re-probe declared-dead peers so a revived node is
	// noticed and its verdict cleared (resurrection).
	if reprobeDead {
		for p := range d.dead {
			if ps, ok := d.peers[p]; ok && !ps.inflight {
				ps.inflight = true
				probes = append(probes, p)
				d.stats.ProbesSent++
			}
		}
	}
	// Keep probing tracked peers that fell out of the leaf set: a live
	// churned peer answers the next probe and is dropped there; a crashed
	// peer stays silent and keeps accruing φ until the verdict lands.
	for p, ps := range d.peers {
		if inSet[p] || d.dead[p] {
			continue
		}
		ps.outOfSet = true
		if !ps.inflight {
			ps.inflight = true
			probes = append(probes, p)
			d.stats.ProbesSent++
		}
	}
	d.mu.Unlock()

	for _, t := range probes {
		d.wg.Add(1)
		go d.probe(t)
	}

	d.evaluate(now)
}

// probe sends one heartbeat and records the reply arrival, including
// the round trip it took — the signal that separates slow from dead.
func (d *Detector) probe(target id.ID) {
	defer d.wg.Done()
	start := d.cfg.Now()
	_, err := d.node.Send(target, simnet.Message{Kind: kindProbe, Size: probeSize})
	now := d.cfg.Now()
	var trans []Transition
	d.mu.Lock()
	ps, ok := d.peers[target]
	if !ok {
		d.mu.Unlock()
		return
	}
	ps.inflight = false
	if err != nil {
		d.mu.Unlock()
		return // silence accrues into φ
	}
	d.stats.Arrivals++
	if ps.outOfSet && !d.dead[target] {
		// The peer answered but the overlay no longer lists it: genuine
		// churn (graceful departure / leaf-set reshuffle), stop tracking.
		delete(d.peers, target)
		delete(d.suspecters, target)
		d.mu.Unlock()
		return
	}
	from := d.stateLocked(target, ps)
	rtt := now.Sub(start)
	if d.dead[target] {
		// Resurrection (chaos downtime, operator restart): clear the
		// verdict and restart the arrival model — the downtime gap is
		// not an inter-arrival sample.
		delete(d.dead, target)
		ps.win = newArrivalWindow(windowSize)
		ps.rttWin = nil
		ps.degraded, ps.slowStreak, ps.fastStreak = false, 0, 0
	} else {
		ps.win.add(now.Sub(ps.last))
	}
	ps.last = now
	ps.hinted = false
	ps.suspect = false
	delete(d.suspecters, target)
	if ps.rttWin == nil {
		ps.rttWin = newArrivalWindow(rttWindow)
	}
	ps.rttWin.add(rtt)
	d.classifyRTTLocked(ps, rtt)
	if to := d.stateLocked(target, ps); to != from {
		var cause string
		switch {
		case from == StateDead:
			cause = "probe answered: resurrection"
		case to == StateDegraded:
			cause = fmt.Sprintf("rtt %v above degraded threshold %v for %d probes",
				rtt, d.cfg.DegradedRTT, ps.slowStreak)
		case from == StateDegraded:
			cause = fmt.Sprintf("rtt %v back at or under %v for %d probes",
				rtt, d.cfg.DegradedRTT/2, ps.fastStreak)
		default:
			cause = "heartbeat arrived"
		}
		trans = append(trans, Transition{
			Peer: target, From: from, To: to, At: now, Cause: cause, RTT: rtt,
		})
	}
	d.mu.Unlock()
	d.fire(trans)
}

// evaluate turns accrued silence into suspicions and verdicts.
func (d *Detector) evaluate(now time.Time) {
	type verdictFn struct {
		target      id.ID
		silentSince time.Time
		hooksRep    []func(DeathReport)
	}
	var gossip []suspectMsg
	var verdicts []verdictFn
	var leafGossip []id.ID
	var trans []Transition

	d.mu.Lock()
	suspected := 0
	tracked := 0
	for peer, ps := range d.peers {
		if d.dead[peer] {
			continue
		}
		tracked++
		phi := d.phiLocked(ps, now)
		threshold := d.cfg.Threshold
		if ps.hinted {
			threshold /= 2
		}
		if phi < threshold {
			continue
		}
		suspected++
		if !ps.suspect {
			from := d.stateLocked(peer, ps)
			ps.suspect = true
			d.stats.Suspicions++
			if to := d.stateLocked(peer, ps); to != from {
				trans = append(trans, Transition{
					Peer: peer, From: from, To: to, At: now, Phi: phi,
					Cause: fmt.Sprintf("phi %.1f crossed threshold %.1f after %v silence",
						phi, threshold, now.Sub(ps.last).Round(time.Millisecond)),
				})
			}
		}
		d.addSuspicionLocked(peer, d.node.ID())
		gossip = append(gossip, suspectMsg{Target: peer, Phi: phi})
	}

	// Self-isolation guard: a node that suddenly suspects most of its
	// leaf set is far more likely to be partitioned or dying itself than
	// to have witnessed a mass failure — withhold verdicts (Akka's
	// "down-all-or-self" dilemma, resolved toward self-doubt).
	isolated := tracked > 1 && suspected*2 > tracked
	if !isolated {
		for peer, ps := range d.peers {
			if !ps.suspect || d.dead[peer] {
				continue
			}
			if len(d.suspecters[peer]) >= d.cfg.Quorum {
				// Silence floor: quorum agreement is not enough while the
				// silence is still shorter than the peer's own round trips
				// would explain — a degraded node's slow reply is in
				// flight exactly then, and killing it would be spurious.
				silence := now.Sub(ps.last)
				if silence < d.deadFloorLocked(ps) {
					d.stats.FloorDeferred++
					continue
				}
				from := d.stateLocked(peer, ps)
				d.dead[peer] = true
				d.stats.Declarations++
				hooksRep := make([]func(DeathReport), len(d.onDeadRep))
				copy(hooksRep, d.onDeadRep)
				verdicts = append(verdicts, verdictFn{
					target: peer, silentSince: ps.last, hooksRep: hooksRep,
				})
				trans = append(trans, Transition{
					Peer: peer, From: from, To: StateDead, At: now,
					Phi: d.phiLocked(ps, now),
					Cause: fmt.Sprintf("quorum of %d suspecters after %v silence",
						len(d.suspecters[peer]), silence.Round(time.Millisecond)),
				})
			}
		}
	} else if suspected > 0 {
		d.stats.Suppressed++
	}
	d.mu.Unlock()
	d.fire(trans)

	if len(gossip) > 0 || len(verdicts) > 0 {
		leafGossip = d.node.LeafSet()
	}
	for _, g := range gossip {
		for _, l := range leafGossip {
			if l == g.Target {
				continue
			}
			msg := g
			_, _ = d.node.Send(l, simnet.Message{Kind: kindSuspect, Size: gossipSize, Payload: &msg})
		}
	}
	for _, v := range verdicts {
		// Purge the corpse from the overlay tables, spread the verdict,
		// then notify subscribers (the supervisor).
		d.node.ReportDead(v.target)
		for _, l := range leafGossip {
			if l == v.target {
				continue
			}
			msg := obituaryMsg{Target: v.target, SilentSince: v.silentSince}
			_, _ = d.node.Send(l, simnet.Message{Kind: kindObituary, Size: gossipSize, Payload: &msg})
		}
		rep := DeathReport{
			Peer:        v.target,
			Trace:       d.cfg.Tracer.NewRootContext(),
			SilentSince: v.silentSince,
			DetectedAt:  now,
		}
		for _, h := range v.hooksRep {
			h(rep)
		}
	}
}

func (d *Detector) phiLocked(ps *peerState, now time.Time) float64 {
	mean, std := ps.win.meanStd(float64(d.cfg.Interval), float64(d.cfg.Interval/minStddevDiv))
	return phi(now.Sub(ps.last), mean, std)
}

func (d *Detector) addSuspicionLocked(target, reporter id.ID) {
	m, ok := d.suspecters[target]
	if !ok {
		m = make(map[id.ID]bool, 4)
		d.suspecters[target] = m
	}
	m[reporter] = true
}

// --- handlers ---

func (d *Detector) handleProbe(_ id.ID, _ simnet.Message) (simnet.Message, error) {
	return simnet.Message{Kind: kindProbe, Size: probeSize}, nil
}

func (d *Detector) handleSuspect(from id.ID, msg simnet.Message) (simnet.Message, error) {
	req, ok := msg.Payload.(*suspectMsg)
	if !ok {
		return simnet.Message{}, fmt.Errorf("detector: bad suspect payload %T", msg.Payload)
	}
	d.mu.Lock()
	if !d.dead[req.Target] && req.Target != d.node.ID() {
		d.addSuspicionLocked(req.Target, from)
	}
	d.mu.Unlock()
	return simnet.Message{Kind: kindSuspect, Size: probeSize}, nil
}

func (d *Detector) handleObituary(from id.ID, msg simnet.Message) (simnet.Message, error) {
	req, ok := msg.Payload.(*obituaryMsg)
	if !ok {
		return simnet.Message{}, fmt.Errorf("detector: bad obituary payload %T", msg.Payload)
	}
	var hooksRep []func(DeathReport)
	var trans []Transition
	d.mu.Lock()
	if !d.dead[req.Target] && req.Target != d.node.ID() {
		ps := d.peers[req.Target]
		prev := d.stateLocked(req.Target, ps)
		d.dead[req.Target] = true
		hooksRep = append(hooksRep, d.onDeadRep...)
		trans = append(trans, Transition{
			Peer: req.Target, From: prev, To: StateDead, At: d.cfg.Now(),
			Cause: fmt.Sprintf("obituary from %s", from.Short()),
		})
	}
	d.mu.Unlock()
	d.fire(trans)
	if len(hooksRep) > 0 {
		d.node.ReportDead(req.Target)
		rep := DeathReport{
			Peer:        req.Target,
			Trace:       d.cfg.Tracer.NewRootContext(),
			SilentSince: req.SilentSince,
			DetectedAt:  d.cfg.Now(),
		}
		for _, h := range hooksRep {
			h(rep)
		}
	}
	return simnet.Message{Kind: kindObituary, Size: probeSize}, nil
}
