package sr3

import (
	"fmt"
	"io"
	"time"

	"sr3/internal/detector"
	"sr3/internal/overload"
	"sr3/internal/supervise"
)

// RetryBudgetPolicy tunes a token-bucket retry budget: successful
// recoveries earn Ratio tokens, a time floor of MinPerSec tokens/second
// keeps a trickle of probes alive, and Burst caps the banked allowance.
// Zero fields take the package defaults (0.1 / 2 / 10).
type RetryBudgetPolicy = overload.BudgetPolicy

// SupervisionConfig tunes the framework's self-healing mode: φ-accrual
// failure detection on every node, automatic recovery of dead owners'
// states, and background replica repair. This is the in-process
// control plane; its process-level counterpart — heartbeat liveness,
// component adoption, and shard repair across sr3node daemons — is the
// cluster control plane embedded in a seed node (internal/cluster).
type SupervisionConfig struct {
	// Heartbeat is the φ-accrual probe interval (default 50ms).
	Heartbeat time.Duration
	// PhiThreshold is the suspicion level at which a silent peer is
	// suspected (default 8).
	PhiThreshold float64
	// Quorum is how many distinct suspecters must agree before a death
	// is declared (default 2).
	Quorum int
	// RepairInterval is the background replica-repair period
	// (default 250ms).
	RepairInterval time.Duration
	// FlightDump, when non-nil, receives the flight-recorder journal as
	// JSON lines whenever a verdict leaves protected states unrecovered
	// (the failure post-mortem). The journal itself is always on; this
	// only adds the streamed copy.
	FlightDump io.Writer
	// ShedDuringRecovery holds every supervised runtime in
	// degraded-service mode (new ingest shed at the queue watermark,
	// replay traffic untouched) for exactly the window in which the
	// supervisor is working a death verdict.
	ShedDuringRecovery bool
	// RetryBudget, when non-nil, caps retry amplification during mass
	// failures: supervisor recovery re-attempts and failover retry
	// rounds spend from one shared token bucket and fail fast when it
	// is empty. Nil keeps retries unbudgeted.
	RetryBudget *RetryBudgetPolicy
}

// SelfHealEvent records one automatically handled node death.
type SelfHealEvent = supervise.Event

// StartSupervision switches the framework into supervised mode: every
// overlay node runs a φ-accrual failure detector, dead state owners are
// recovered at replacements without any Recover call, and a maintenance
// loop repairs under-replicated shards back to each state's replication
// factor. States already saved are protected immediately; later Save
// calls protect their states automatically.
func (f *Framework) StartSupervision(cfg SupervisionConfig) error {
	f.mu.Lock()
	if f.sup != nil {
		f.mu.Unlock()
		return fmt.Errorf("sr3: supervision already running")
	}
	var budget *overload.Budget
	if cfg.RetryBudget != nil {
		budget = overload.NewBudget(*cfg.RetryBudget)
	}
	sup := supervise.New(f.cluster, supervise.Config{
		Detector: detector.Config{
			Interval:  cfg.Heartbeat,
			Threshold: cfg.PhiThreshold,
			Quorum:    cfg.Quorum,
		},
		RepairInterval:     cfg.RepairInterval,
		Tracer:             f.cfg.Tracer,
		Flight:             f.flight,
		FlightDump:         cfg.FlightDump,
		ShedDuringRecovery: cfg.ShedDuringRecovery,
		RetryBudget:        budget,
	})
	f.sup = sup
	for name, ac := range f.apps {
		if ac.lastSize > 0 {
			sup.Protect(supervise.StateSpec{
				App:        name,
				Mechanism:  ac.mechanism,
				Options:    ac.options,
				StateBytes: ac.lastSize,
			})
		}
	}
	f.mu.Unlock()
	return sup.Start()
}

// StopSupervision leaves supervised mode (idempotent).
func (f *Framework) StopSupervision() {
	f.mu.Lock()
	sup := f.sup
	f.sup = nil
	f.mu.Unlock()
	if sup != nil {
		sup.Stop()
	}
}

// SelfHealEvents returns the supervisor's handled-death log (empty when
// supervision never ran).
func (f *Framework) SelfHealEvents() []SelfHealEvent {
	f.mu.Lock()
	sup := f.sup
	f.mu.Unlock()
	if sup == nil {
		return nil
	}
	return sup.Events()
}

// PostMortem returns the flight-recorder snapshot the supervisor took at
// its most recent failed verdict (nil when supervision never ran or every
// verdict recovered cleanly).
func (f *Framework) PostMortem() []FlightEvent {
	f.mu.Lock()
	sup := f.sup
	f.mu.Unlock()
	if sup == nil {
		return nil
	}
	return sup.PostMortem()
}

// SuperviseRuntime binds a stream runtime to the running supervisor:
// every stateful task is protected as a task-bound state, so a dead
// state owner triggers kill → backend recovery → input-log replay on the
// task with no manual intervention.
func (f *Framework) SuperviseRuntime(rt *Runtime) error {
	f.mu.Lock()
	sup := f.sup
	f.rts = append(f.rts, rt)
	f.mu.Unlock()
	if sup == nil {
		return fmt.Errorf("sr3: supervision not running")
	}
	sup.BindRuntime(rt)
	for _, key := range rt.StatefulTaskKeys() {
		sup.Protect(supervise.StateSpec{App: key, TaskBound: true})
	}
	return nil
}
