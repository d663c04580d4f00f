// Overload benchmark: offered load swept past the operator's sustained
// capacity — with a crash mid-stream — measuring what the backpressure
// tier actually guarantees: bounded queues, exact offered = admitted +
// shed accounting, exactly-once delivery of every admitted tuple, and
// recovery that completes while the system sheds. A retry-storm pair
// (budgeted vs unbudgeted failover retries against transiently dead
// replica holders) quantifies the retry-budget cap in the same artifact.
package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"sr3/internal/id"
	"sr3/internal/overload"
	"sr3/internal/recovery"
	"sr3/internal/simnet"
	"sr3/internal/stream"
)

// OverloadSchema versions the committed BENCH_overload.json artifact.
const OverloadSchema = "sr3.bench.overload/v1"

// Overload scenario names.
const (
	// OverloadSteady pumps at the multiple with no fault: the shed
	// baseline.
	OverloadSteady = "steady"
	// OverloadCrash kills the stateful operator mid-stream while the
	// pump keeps offering; degraded-service mode is held for the
	// recovery window.
	OverloadCrash = "crash"
	// OverloadRetryStorm measures failover retry volume against
	// transiently dead replica holders, budgeted vs not.
	OverloadRetryStorm = "retry-storm"
)

// overloadDelay is the slow operator's per-tuple stall; the effective
// capacity is measured, not derived, because time.Sleep overshoots small
// arguments under scheduler timer slack.
const (
	overloadDelay    = 100 * time.Microsecond
	overloadQueueCap = 128
)

// calibrateCapacity measures the slow bolt's sustainable rate (tuples/s)
// on this machine, so "2x" genuinely means twice what the operator can
// absorb rather than twice a nominal figure the sleeps cannot hit.
func calibrateCapacity() int {
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		time.Sleep(overloadDelay)
	}
	per := time.Since(start) / n
	cap := int(time.Second / per)
	if cap < 100 {
		cap = 100
	}
	return cap
}

// OverloadCellSpec names one cell to run.
type OverloadCellSpec struct {
	Scenario string `json:"scenario"`
	// Load is the offered-load multiple of the operator's capacity
	// ("0.5x", "1x", "2x", "4x"). Unused for retry-storm.
	Load string `json:"load,omitempty"`
	// Seconds is how long the pump offers load (scaled down in the CI
	// smoke preset). Unused for retry-storm.
	Seconds float64 `json:"seconds,omitempty"`
	// Budgeted arms the failover retry budget (retry-storm only).
	Budgeted bool `json:"budgeted,omitempty"`
}

// OverloadCell is one measured cell.
type OverloadCell struct {
	Scenario string `json:"scenario"`
	Load     string `json:"load,omitempty"`
	Budgeted bool   `json:"budgeted,omitempty"`

	// Exact admission accounting at the stateful operator.
	Offered      int64   `json:"offered,omitempty"`
	Admitted     int64   `json:"admitted,omitempty"`
	Shed         int64   `json:"shed,omitempty"`
	ShedFraction float64 `json:"shed_fraction,omitempty"`
	// AccountingExact = offered == admitted + shed AND offered equals
	// what the driver actually pumped — no tuple unaccounted for.
	AccountingExact bool `json:"accounting_exact"`
	// Queue bound: the high-water mark must never exceed the capacity.
	QueueCap       int `json:"queue_cap,omitempty"`
	QueueHighWater int `json:"queue_high_water,omitempty"`

	RecoverMs float64 `json:"recover_ms,omitempty"`
	// LagDrainMs is pump-end → backlog drained (queues empty).
	LagDrainMs float64 `json:"lag_drain_ms,omitempty"`
	LagP50Ms   float64 `json:"lag_p50_ms,omitempty"`
	LagP99Ms   float64 `json:"lag_p99_ms,omitempty"`

	// Exactly-once over *admitted* tuples: every tuple the queue
	// admitted reaches the sink exactly once (replay dedupe absorbed)
	// and the operator state equals the admitted count.
	ExactlyOnceAdmitted bool  `json:"exactly_once_admitted"`
	Duplicates          int64 `json:"duplicates,omitempty"`
	Missing             int64 `json:"missing,omitempty"`
	StateExact          bool  `json:"state_exact"`

	// Retry-storm fields: funded failover retry rounds, rounds the
	// budget suppressed, and whether the recovery completed.
	RetryRounds     int64  `json:"retry_rounds,omitempty"`
	RetrySuppressed int64  `json:"retry_suppressed,omitempty"`
	RecoverOK       bool   `json:"recover_ok,omitempty"`
	Notes           string `json:"notes,omitempty"`
	Error           string `json:"error,omitempty"`
}

// OverloadReport is the committed artifact.
type OverloadReport struct {
	Schema string         `json:"schema"`
	Cells  []OverloadCell `json:"cells"`
}

// JSON renders the report for the committed artifact.
func (r *OverloadReport) JSON() ([]byte, error) { return marshalArtifact(r) }

// OverloadPreset returns the cell list for a named preset: "tiny" is the
// CI smoke subset, "full" the committed sweep.
func OverloadPreset(preset string) ([]OverloadCellSpec, error) {
	switch preset {
	case "tiny":
		return []OverloadCellSpec{
			{Scenario: OverloadCrash, Load: "2x", Seconds: 0.4},
			{Scenario: OverloadRetryStorm, Budgeted: false},
			{Scenario: OverloadRetryStorm, Budgeted: true},
		}, nil
	case "full":
		return []OverloadCellSpec{
			{Scenario: OverloadSteady, Load: "0.5x", Seconds: 1},
			{Scenario: OverloadSteady, Load: "1x", Seconds: 1},
			{Scenario: OverloadSteady, Load: "2x", Seconds: 1},
			{Scenario: OverloadSteady, Load: "4x", Seconds: 1},
			{Scenario: OverloadCrash, Load: "1x", Seconds: 1},
			{Scenario: OverloadCrash, Load: "2x", Seconds: 1},
			{Scenario: OverloadCrash, Load: "4x", Seconds: 1},
			{Scenario: OverloadRetryStorm, Budgeted: false},
			{Scenario: OverloadRetryStorm, Budgeted: true},
		}, nil
	default:
		return nil, fmt.Errorf("overload: unknown preset %q (tiny, full)", preset)
	}
}

// OverloadSweep runs every cell on a fresh rig.
func OverloadSweep(specs []OverloadCellSpec) *OverloadReport {
	return &OverloadReport{Schema: OverloadSchema, Cells: sweep(specs, 4000, RunOverloadCell,
		func(c *OverloadCell) *string { return &c.Error })}
}

// RunOverloadCell builds one fresh rig and measures one cell.
func RunOverloadCell(spec OverloadCellSpec, seed int64) (OverloadCell, error) {
	if spec.Scenario == OverloadRetryStorm {
		return runRetryStorm(spec, seed)
	}
	return runOverloadStream(spec, seed)
}

// parseLoadMultiple maps "2x" → 2.0.
func parseLoadMultiple(load string) (float64, error) {
	m, err := strconv.ParseFloat(strings.TrimSuffix(load, "x"), 64)
	if err != nil || m <= 0 {
		return 0, fmt.Errorf("overload: bad load multiple %q", load)
	}
	return m, nil
}

// runOverloadStream drives the steady / crash scenarios: the rig's
// counting bolt is stalled to a finite capacity and offered a multiple of
// it through shedding queues.
func runOverloadStream(spec OverloadCellSpec, seed int64) (OverloadCell, error) {
	cell := OverloadCell{Scenario: spec.Scenario, Load: spec.Load}
	mult, err := parseLoadMultiple(spec.Load)
	if err != nil {
		return cell, err
	}
	if spec.Scenario != OverloadSteady && spec.Scenario != OverloadCrash {
		return cell, fmt.Errorf("overload: unknown scenario %q", spec.Scenario)
	}
	secs := spec.Seconds
	if secs <= 0 {
		secs = 1
	}
	capacity := calibrateCapacity()
	rate := int(float64(capacity) * mult)
	if rate < 1 {
		rate = 1
	}
	total := int(float64(rate) * secs)

	r, err := newRig(rigOpts{seed: seed, mechanism: MechSR3Star, delay: overloadDelay, cfg: stream.Config{
		SaveEveryTuples: rigSaveEvery,
		ChannelDepth:    overloadQueueCap,
		QueuePolicy:     stream.QueueShedOldest,
	}})
	if err != nil {
		return cell, err
	}
	defer r.Close()

	if spec.Scenario == OverloadSteady {
		r.pump(0, total, rate)
	} else {
		// Pre-fault warmup at the offered rate, snapshot, then keep
		// offering full-tilt while the operator is killed and recovered
		// under a degraded-service hold.
		killAt := total * 2 / 5
		r.pump(0, killAt, rate)
		if err := r.saveAll(); err != nil {
			return cell, err
		}
		r.pumpAsync(killAt, total, rate)
		r.rt.EnterDegraded("bench:" + spec.Load)
		cell.RecoverMs, err = r.crashTask()
		r.rt.ExitDegraded()
		r.pumps.Wait()
		if err != nil {
			return cell, err
		}
	}

	// Lag-drain: how long the admitted backlog takes to clear once the
	// pump stops offering.
	drainStart := time.Now()
	r.rt.Drain()
	cell.LagDrainMs = ms(time.Since(drainStart))

	a, err := r.audit()
	if err != nil {
		return cell, err
	}
	cell.Offered, cell.Admitted, cell.Shed = a.count.Offered, a.count.Admitted, a.count.Shed
	if cell.Offered > 0 {
		cell.ShedFraction = float64(cell.Shed) / float64(cell.Offered)
	}
	cell.AccountingExact = a.ledgerExact
	cell.QueueCap, cell.QueueHighWater = a.count.QueueCap, a.count.QueueHighWater
	cell.Duplicates, cell.Missing, cell.StateExact = a.duplicates, a.missing, a.stateExact
	cell.ExactlyOnceAdmitted = a.exactlyOnce()
	cell.Notes = fmt.Sprintf("capacity=%d/s offered=%d/s", capacity, rate)
	return cell, nil
}

// runRetryStorm measures failover retry volume: the state owner dies,
// and both replica holders of one shard index are scheduled to crash
// transiently on the first recovery fetch — so the star executor must
// burn retry rounds waiting them out. Unbudgeted, the rounds run until
// the holders return; budgeted, the budget funds two rounds and then
// fails the recovery fast. Both cells meter rounds through a budget
// (the unbudgeted one is too large to ever suppress), so RetryRounds is
// measured identically.
func runRetryStorm(spec OverloadCellSpec, seed int64) (OverloadCell, error) {
	cell := OverloadCell{Scenario: spec.Scenario, Budgeted: spec.Budgeted}
	r, err := newRig(rigOpts{seed: seed, mechanism: MechSR3Star})
	if err != nil {
		return cell, err
	}
	defer r.Close()
	ring, cluster := r.ring, r.cluster

	const app = "overload-storm"
	owner := ring.IDs()[2]
	mgr := cluster.Manager(owner)
	snap := make([]byte, 48_000)
	for i := range snap {
		snap[i] = byte(seed + int64(i))
	}
	p, err := mgr.Save(app, snap, rigShards, rigReplicas, mgr.NextVersion(1))
	if err != nil {
		return cell, err
	}

	ring.Fail(owner)
	ring.MaintenanceRound()
	replacement, ok := ring.ClosestLive(owner)
	if !ok {
		return cell, fmt.Errorf("overload: no replacement")
	}
	// Transiently kill both holders of one shard index (avoiding the
	// replacement): that index has zero live replicas until the downtime
	// elapses, so recovery must retry.
	var victims []id.ID
	for i := 0; i < p.M; i++ {
		holders := p.NodesForIndex(i)
		ok := len(holders) == rigReplicas
		for _, h := range holders {
			if h == replacement {
				ok = false
			}
		}
		if ok {
			victims = holders
			break
		}
	}
	if victims == nil {
		return cell, fmt.Errorf("overload: no index with all holders off-replacement")
	}
	const downtime = 150 * time.Millisecond
	for _, v := range victims {
		r.chaos.Crash(simnet.CrashSchedule{Node: v, KindPrefix: "sr3.", AfterMessages: 1, Downtime: downtime})
	}

	opts := recovery.DefaultOptions()
	opts.FailoverRetries = 8
	opts.RetryBackoff = 10 * time.Millisecond
	var budget *overload.Budget
	if spec.Budgeted {
		// Two funded rounds, then suppression: the cap under test.
		budget = overload.NewBudget(overload.BudgetPolicy{Ratio: 0.001, MinPerSec: 0.001, Burst: 2})
		cell.Notes = "budget burst=2"
	} else {
		// Metering-only budget: burst far above any possible round count,
		// so it never suppresses but still counts funded rounds.
		budget = overload.NewBudget(overload.BudgetPolicy{Ratio: 0.001, MinPerSec: 0.001, Burst: 1 << 20})
		cell.Notes = "unbudgeted baseline (metered)"
	}
	opts.RetryBudget = budget

	start := time.Now()
	_, v, rerr := cluster.Recover(app, recovery.Star, opts)
	v.Release()
	cell.RecoverMs = ms(time.Since(start))
	cell.RecoverOK = rerr == nil
	st := budget.Stats()
	cell.RetryRounds = st.Spent
	cell.RetrySuppressed = st.Suppressed
	if spec.Budgeted {
		// The budget is expected to cut the recovery short — that is the
		// demonstration, not a failure of the harness.
		if rerr != nil {
			cell.Notes += "; fail-fast: " + rerr.Error()
		}
		return cell, nil
	}
	if rerr != nil {
		return cell, fmt.Errorf("overload: unbudgeted recovery failed: %w", rerr)
	}
	return cell, nil
}

// ValidateOverload parses and schema-checks a committed artifact,
// enforcing the acceptance invariants: exact accounting and bounded
// queues everywhere, an exactly-once 2x-crash cell, and a retry-storm
// pair where the budget demonstrably caps retry volume.
func ValidateOverload(blob []byte) (*OverloadReport, error) {
	var r OverloadReport
	if err := parseArtifact(blob, "overload", OverloadSchema, &r); err != nil {
		return nil, err
	}
	var crashOK bool
	var storm, stormBudgeted *OverloadCell
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Error != "" {
			return nil, fmt.Errorf("overload artifact: cell %s/%s failed: %s", c.Scenario, c.Load, c.Error)
		}
		switch c.Scenario {
		case OverloadSteady, OverloadCrash:
			if !c.AccountingExact {
				return nil, fmt.Errorf("overload artifact: cell %s/%s accounting not exact", c.Scenario, c.Load)
			}
			if c.Offered != c.Admitted+c.Shed {
				return nil, fmt.Errorf("overload artifact: cell %s/%s offered %d != admitted %d + shed %d",
					c.Scenario, c.Load, c.Offered, c.Admitted, c.Shed)
			}
			if c.QueueHighWater > c.QueueCap {
				return nil, fmt.Errorf("overload artifact: cell %s/%s queue bound violated (%d > %d)",
					c.Scenario, c.Load, c.QueueHighWater, c.QueueCap)
			}
			if !c.ExactlyOnceAdmitted {
				return nil, fmt.Errorf("overload artifact: cell %s/%s not exactly-once over admitted tuples", c.Scenario, c.Load)
			}
			if m, err := parseLoadMultiple(c.Load); err == nil &&
				c.Scenario == OverloadCrash && m >= 2 && c.RecoverMs > 0 {
				crashOK = true
			}
		case OverloadRetryStorm:
			if c.Budgeted {
				stormBudgeted = c
			} else {
				storm = c
			}
		default:
			return nil, fmt.Errorf("overload artifact: unknown scenario %q", c.Scenario)
		}
	}
	if !crashOK {
		return nil, fmt.Errorf("overload artifact: no crash cell at >=2x load with a completed recovery")
	}
	if storm == nil || stormBudgeted == nil {
		return nil, fmt.Errorf("overload artifact: retry-storm pair (budgeted + unbudgeted) missing")
	}
	if !storm.RecoverOK {
		return nil, fmt.Errorf("overload artifact: unbudgeted retry-storm recovery did not complete")
	}
	if stormBudgeted.RetryRounds >= storm.RetryRounds {
		return nil, fmt.Errorf("overload artifact: budget did not cap retries (budgeted %d rounds >= unbudgeted %d)",
			stormBudgeted.RetryRounds, storm.RetryRounds)
	}
	if stormBudgeted.RetrySuppressed == 0 {
		return nil, fmt.Errorf("overload artifact: budgeted retry-storm suppressed nothing")
	}
	return &r, nil
}

// Format renders the report as an aligned table.
func (r *OverloadReport) Format() string { return alignMarkdown(r.Markdown()) }
