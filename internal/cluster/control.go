package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sr3/internal/obs"
	"sr3/internal/simnet"
)

// controlPlane is the seed-embedded membership and assignment authority
// (SR3's coordinator role, scoped to one process so the data plane —
// state scatter, recovery fetch, tuple flow — stays fully peer-to-peer).
// It admits joins, tracks liveness by heartbeat, and on failure moves
// the dead node's components to a surviving node via an adopt RPC,
// flipping the routing epoch only after the adopter has recovered their
// state. Everything is guarded by one mutex; the monitor loop ticks at
// the heartbeat interval.
type controlPlane struct {
	node *Node // the seed node hosting this plane

	mu       sync.Mutex
	view     View
	spec     *Spec
	lastSeen map[string]time.Time
	// adopting marks components currently being moved, so a slow adopt
	// is not re-issued every tick.
	adopting map[string]bool
	// recov tracks one open recovery trace per dead node: the root span
	// (opened at the last heartbeat, so its duration is the cluster MTTR)
	// stays open across adoption attempts until every orphaned component
	// is re-homed or the node rejoins. The per-node adoptions parent on
	// ctx, and the context rides the adopt RPC so the adopter's recovery
	// spans land in the same trace.
	recov map[string]*recoveryTrace
	// started stamps control-plane bring-up: components assigned to a
	// node that has never joined are not orphans until the node has had
	// DeadAfter to show up, so a slow joiner at cluster start keeps its
	// assignment instead of losing it to the seed.
	started time.Time
	stop    chan struct{}
	done    chan struct{}
	// adoptions counts the runAdoption goroutines the monitor starts and
	// the post-mortems those start in turn (track).
	adoptions sync.WaitGroup
}

func newControlPlane(n *Node, spec *Spec) *controlPlane {
	cp := &controlPlane{
		node:     n,
		spec:     spec,
		lastSeen: map[string]time.Time{},
		adopting: map[string]bool{},
		recov:    map[string]*recoveryTrace{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	cp.view = View{
		Epoch:  1,
		Assign: spec.InitialAssignment(),
	}
	return cp
}

func (cp *controlPlane) start() {
	cp.started = time.Now()
	go cp.monitor()
}

// recoveryTrace is one node-death recovery in flight: the seed-side
// anchor of the cluster-wide distributed trace.
type recoveryTrace struct {
	ctx     obs.SpanContext
	root    *obs.Span
	started time.Time // when the verdict fired (not the silence start)
}

// slowRecoveryAfter is the wall-clock budget after which a completed
// recovery still triggers an automatic cluster post-mortem — slow is a
// failure mode worth a timeline even when the outcome is healthy.
const slowRecoveryAfter = 10 * time.Second

// noteDeathLocked opens the recovery trace for a node the control plane
// just gave up on: a self-heal root starting at the node's last sign of
// life (so root duration = detection + repair = MTTR) with a detect
// child covering the silence window, plus a verdict flight note.
func (cp *controlPlane) noteDeathLocked(name string, lastSeen, now time.Time) *recoveryTrace {
	if rt := cp.recov[name]; rt != nil {
		return rt
	}
	tr := cp.node.tracer
	ctx := tr.NewRootContext()
	root := tr.StartRootAt(ctx, obs.PhaseSelfHeal, lastSeen)
	root.SetStr("dead", name)
	root.SetStr("seed", cp.node.cfg.Name)
	tr.RecordSpan(ctx, obs.PhaseDetect, lastSeen, now, obs.Str("dead", name))
	rt := &recoveryTrace{ctx: ctx, root: root, started: now}
	cp.recov[name] = rt
	cp.node.flight.Note(obs.FlightVerdict, name, "",
		fmt.Sprintf("declared dead after %v silence", now.Sub(lastSeen).Round(time.Millisecond)), nil)
	return rt
}

// finishRecoveryLocked closes a dead node's recovery trace once nothing
// of it remains orphaned or mid-adoption. Ending the root stamps the
// MTTR; a recovery that beat the verdict but blew the slow budget still
// gets an automatic post-mortem.
func (cp *controlPlane) finishRecoveryLocked(deadNode, adopter, outcome string) {
	rt := cp.recov[deadNode]
	if rt == nil {
		return
	}
	for comp, owner := range cp.view.Assign {
		if owner == deadNode && (cp.adopting[comp] || outcome != "rejoined") {
			return // still being (or waiting to be) re-homed
		}
	}
	elapsed := time.Since(rt.started)
	rt.root.SetStr("adopter", adopter)
	rt.root.SetStr("outcome", outcome)
	rt.root.End()
	delete(cp.recov, deadNode)
	cp.node.flight.Note(obs.FlightRecoveryOK, deadNode, "",
		fmt.Sprintf("%s (adopter=%s) in %v", outcome, adopter, elapsed.Round(time.Millisecond)), nil)
	if elapsed > slowRecoveryAfter && cp.node.hub != nil {
		reason := fmt.Sprintf("slow recovery of %s: %v > %v", deadNode, elapsed.Round(time.Millisecond), slowRecoveryAfter)
		go cp.node.hub.postMortem(reason)
	}
}

// close stops the monitor, then waits for the adoptions it started: one
// still running would append its cell after Stop has taken stock of them.
func (cp *controlPlane) close() {
	close(cp.stop)
	<-cp.done
	cp.adoptions.Wait()
}

// track runs f on a goroutine that close waits for. Only the monitor and
// what it tracked may call it, so no Add can race the Wait.
func (cp *controlPlane) track(f func()) {
	cp.adoptions.Add(1)
	go func() { defer cp.adoptions.Done(); f() }()
}

// snapshotView returns a deep copy of the current view.
func (cp *controlPlane) snapshotView() View {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.view.clone()
}

func (v *View) clone() View {
	out := View{Epoch: v.Epoch, Assign: make(map[string]string, len(v.Assign))}
	out.Members = append(out.Members, v.Members...)
	for k, val := range v.Assign {
		out.Assign[k] = val
	}
	return out
}

// handleJoin admits (or re-admits) a member. A join under a known name
// with a higher incarnation is the same node restarted: it comes back
// alive with no components — its old set has been adopted elsewhere, or
// is re-assigned here if the failure was never acted on.
func (cp *controlPlane) handleJoin(req *joinReq) (*joinResp, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	m := cp.view.member(req.Name)
	if m == nil {
		cp.view.Members = append(cp.view.Members, Member{
			Name: req.Name, Addr: req.Addr, HTTP: req.HTTP,
			Alive: true, Incarnation: req.Incarnation,
		})
	} else {
		if req.Incarnation <= m.Incarnation && m.Alive {
			return nil, fmt.Errorf("member %s incarnation %d already joined", req.Name, m.Incarnation)
		}
		m.Addr, m.HTTP = req.Addr, req.HTTP
		m.Alive = true
		m.Incarnation = req.Incarnation
	}
	cp.lastSeen[req.Name] = time.Now()
	cp.view.Epoch++
	// A rejoin resolves an open recovery unless an adoption is already
	// moving its components — then the adoption completes the trace.
	cp.finishRecoveryLocked(req.Name, req.Name, "rejoined")
	cp.node.logf("control: %s joined (incarnation %d) epoch=%d", req.Name, req.Incarnation, cp.view.Epoch)
	return &joinResp{View: cp.view.clone(), Spec: *cp.spec}, nil
}

// handleHeartbeat refreshes liveness and tells the sender the current
// epoch so it can pull a fresh view when routing changed.
func (cp *controlPlane) handleHeartbeat(req *heartbeatReq) (*heartbeatResp, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	m := cp.view.member(req.Name)
	if m == nil || m.Incarnation != req.Incarnation {
		return nil, fmt.Errorf("%w: %s incarnation %d is not current", ErrRejoin, req.Name, req.Incarnation)
	}
	if !m.Alive {
		// A heartbeat from a node we declared dead: it must rejoin to be
		// routable again (its components may already live elsewhere).
		return nil, fmt.Errorf("%w: %s was declared dead", ErrRejoin, req.Name)
	}
	cp.lastSeen[req.Name] = time.Now()
	return &heartbeatResp{Epoch: cp.view.Epoch}, nil
}

// handleLeave marks a gracefully departing member dead immediately; the
// next monitor tick moves its components.
func (cp *controlPlane) handleLeave(req *leaveReq) (*leaveResp, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	m := cp.view.member(req.Name)
	if m == nil || m.Incarnation != req.Incarnation || !m.Alive {
		return &leaveResp{}, nil // idempotent
	}
	m.Alive = false
	cp.view.Epoch++
	cp.node.logf("control: %s left epoch=%d", req.Name, cp.view.Epoch)
	return &leaveResp{}, nil
}

// monitor is the failure detector + repair orchestrator: every
// heartbeat interval it declares silent members dead and re-homes
// orphaned components.
func (cp *controlPlane) monitor() {
	defer close(cp.done)
	tick := time.NewTicker(cp.node.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-cp.stop:
			return
		case <-tick.C:
			cp.sweep()
		}
	}
}

func (cp *controlPlane) sweep() {
	now := time.Now()
	cp.mu.Lock()
	// The seed is always live from its own perspective.
	cp.lastSeen[cp.node.cfg.Name] = now
	changed := false
	for i := range cp.view.Members {
		m := &cp.view.Members[i]
		if m.Alive && now.Sub(cp.lastSeen[m.Name]) > cp.node.cfg.DeadAfter {
			m.Alive = false
			changed = true
			cp.node.logf("control: %s declared dead (silent %v)", m.Name, now.Sub(cp.lastSeen[m.Name]).Round(time.Millisecond))
			cp.noteDeathLocked(m.Name, cp.lastSeen[m.Name], now)
		}
	}
	if changed {
		cp.view.Epoch++
	}
	// Orphans: components assigned to a node that is not currently live.
	orphansBy := map[string][]string{}
	for comp, nodeName := range cp.view.Assign {
		if cp.adopting[comp] {
			continue
		}
		m := cp.view.member(nodeName)
		if m == nil {
			// Never joined: grant a bring-up grace before adopting, so
			// topology nodes that are still starting keep their work.
			if now.Sub(cp.started) > cp.node.cfg.DeadAfter {
				orphansBy[nodeName] = append(orphansBy[nodeName], comp)
			}
		} else if !m.Alive {
			orphansBy[nodeName] = append(orphansBy[nodeName], comp)
		}
	}
	type adoption struct {
		target   Member
		comps    []string
		epoch    int64
		deadNode string
		trace    obs.SpanContext
	}
	var plans []adoption
	for nodeName, comps := range orphansBy {
		sort.Strings(comps)
		target, ok := cp.pickAdopterLocked()
		if !ok {
			continue // no live member; retry next tick
		}
		for _, c := range comps {
			cp.adopting[c] = true
		}
		// Nodes that left gracefully or never joined were not declared
		// dead above; open their recovery trace here so every adoption
		// runs traced. Their silence basis is the last heartbeat if any,
		// else control-plane bring-up.
		basis := cp.lastSeen[nodeName]
		if basis.IsZero() {
			basis = cp.started
		}
		rt := cp.noteDeathLocked(nodeName, basis, now)
		plans = append(plans, adoption{
			target: target, comps: comps, epoch: cp.view.Epoch,
			deadNode: nodeName, trace: rt.ctx,
		})
	}
	cp.mu.Unlock()

	for _, plan := range plans {
		cp.track(func() { cp.runAdoption(plan.target, plan.comps, plan.epoch, plan.deadNode, plan.trace) })
	}
}

// pickAdopterLocked chooses the live member hosting the fewest
// components (ties broken by name) — a simple load-spreading heuristic.
func (cp *controlPlane) pickAdopterLocked() (Member, bool) {
	load := map[string]int{}
	for _, nodeName := range cp.view.Assign {
		load[nodeName]++
	}
	var best *Member
	for i := range cp.view.Members {
		m := &cp.view.Members[i]
		if !m.Alive {
			continue
		}
		if best == nil || load[m.Name] < load[best.Name] ||
			(load[m.Name] == load[best.Name] && m.Name < best.Name) {
			best = m
		}
	}
	if best == nil {
		return Member{}, false
	}
	return *best, true
}

// runAdoption tells target to host comps; on ACK the assignment flips
// and the epoch bumps, so relays re-resolve routes only once the
// adopter has the components recovered and running. On failure the
// components go back in the orphan pool for the next sweep and the seed
// auto-collects a cluster post-mortem. The adopt span parents on the
// dead node's recovery trace and its context rides the message, so the
// adopter's recovery work lands in the same trace.
func (cp *controlPlane) runAdoption(target Member, comps []string, epoch int64, deadNode string, trace obs.SpanContext) {
	cp.node.logf("control: adopting %v onto %s", comps, target.Name)
	adoptSp := cp.node.tracer.StartSpan(trace, obs.PhaseAdopt)
	adoptSp.SetStr("target", target.Name)
	adoptSp.SetStr("components", strings.Join(comps, ","))
	req := &adoptReq{Components: comps, Epoch: epoch}
	ctx := adoptSp.Ctx()
	var err error
	if target.Name == cp.node.cfg.Name {
		err = cp.node.handleAdopt(req, ctx) // local fast path: the seed adopts
	} else {
		_, err = call[adoptResp](cp.node, target.Addr, simnet.Message{
			Kind: kindAdopt, Payload: req, TraceID: ctx.Trace, SpanID: ctx.Span,
		}, adoptTimeout)
	}
	adoptSp.EndErr(err)
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for _, c := range comps {
		delete(cp.adopting, c)
	}
	if err != nil {
		cp.node.logf("control: adoption of %v by %s failed: %v", comps, target.Name, err)
		cp.node.flight.Note(obs.FlightRecoveryFail, deadNode, "",
			fmt.Sprintf("adoption of %v by %s failed", comps, target.Name), err)
		if cp.node.hub != nil {
			reason := fmt.Sprintf("adoption of %v by %s failed: %v", comps, target.Name, err)
			cp.track(func() { cp.node.hub.postMortem(reason) }) // off-lock: it calls every member
		}
		return
	}
	for _, c := range comps {
		cp.view.Assign[c] = target.Name
	}
	cp.view.Epoch++
	cp.node.logf("control: %v now on %s epoch=%d", comps, target.Name, cp.view.Epoch)
	cp.finishRecoveryLocked(deadNode, target.Name, "adopted")
}

// adoptTimeout is the seed's deadline for the adopt reply: the adopter
// recovers scattered state and replays before ACKing, so it gets more
// headroom than a plain control round trip.
const adoptTimeout = 30 * time.Second
