// Fault-recovery benchmark matrix: scenarios × mechanisms × load levels,
// each cell a fresh stream topology under sustained or burst ingest with
// a seeded fault injected mid-run. Every cell reports recovery latency,
// event-time lag at the sink, and an exactly-once verdict from a
// sequence-numbered dedupe checker — the "which mechanism survives which
// failure at what cost" table the paper's evaluation gestures at but
// never commits to numbers.
package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"sr3/internal/detector"
	"sr3/internal/id"
	"sr3/internal/obs"
	"sr3/internal/simnet"
	"sr3/internal/stream"
	"sr3/internal/supervise"
)

// MatrixSchema versions the committed BENCH_matrix.json artifact.
const MatrixSchema = "sr3.bench.matrix/v1"

// Matrix scenario names.
const (
	ScenarioCrash       = "crash"              // owner node + task crash
	ScenarioCrash2      = "crash-correlated"   // owner + replica holder crash together
	ScenarioPartition   = "partition-recovery" // partition fires mid-collection, heals
	ScenarioSlowNode    = "slow-node"          // gray failure: degraded holder, supervised
	ScenarioFlakyLink   = "flaky-link"         // jittered, lossy links under recovery traffic
	ScenarioCrashIngest = "crash-ingest"       // crash under sustained ingest
)

// MatrixCellSpec names one cell to run.
type MatrixCellSpec struct {
	Scenario  string `json:"scenario"`
	Mechanism string `json:"mechanism"`
	// Load is the ingest profile: "burst" pushes batches around the
	// fault; "sustained-<n>k" streams n×1000 tuples/s through it.
	Load string `json:"load"`
}

// MatrixCell is one measured cell of the matrix.
type MatrixCell struct {
	Scenario     string  `json:"scenario"`
	Mechanism    string  `json:"mechanism"`
	Load         string  `json:"load"`
	Tuples       int     `json:"tuples"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	// DetectMs is kill → verdict at the supervisor (0 for cells whose
	// fault is triggered manually rather than detected).
	DetectMs  float64 `json:"detect_ms"`
	RecoverMs float64 `json:"recover_ms"`
	// Event-time lag observed at the sink (ms).
	LagP50Ms float64 `json:"lag_p50_ms"`
	LagP99Ms float64 `json:"lag_p99_ms"`
	LagMaxMs float64 `json:"lag_max_ms"`
	// ExactlyOnce = no sequence missing at the sink and the recovered
	// operator state byte-exact. Duplicates counts replay re-deliveries
	// the dedupe absorbed (at-least-once delivery + dedupe = the
	// exactly-once effect).
	ExactlyOnce bool  `json:"exactly_once"`
	Duplicates  int64 `json:"duplicates"`
	Missing     int64 `json:"missing"`
	StateExact  bool  `json:"state_exact"`
	// DegradedPath marks cells where recovery routed around a
	// slow-but-alive node instead of killing it; SpuriousKill marks the
	// failure mode the gray tier exists to prevent.
	DegradedPath bool   `json:"degraded_path"`
	SpuriousKill bool   `json:"spurious_kill"`
	Notes        string `json:"notes,omitempty"`
	Error        string `json:"error,omitempty"`
}

// MatrixReport is the committed artifact.
type MatrixReport struct {
	Schema string       `json:"schema"`
	Cells  []MatrixCell `json:"cells"`
}

// JSON renders the report for the committed artifact.
func (r *MatrixReport) JSON() ([]byte, error) { return marshalArtifact(r) }

// ValidateMatrix parses a matrix artifact and enforces its acceptance
// gates: every cell ran, lost nothing and recovered its state exactly,
// and no slow-node cell killed the slow-but-alive holder or skipped the
// degraded path.
func ValidateMatrix(blob []byte) (*MatrixReport, error) {
	var r MatrixReport
	if err := parseArtifact(blob, "matrix", MatrixSchema, &r); err != nil {
		return nil, err
	}
	for i, c := range r.Cells {
		if c.Scenario == "" || c.Mechanism == "" || c.Load == "" {
			return nil, fmt.Errorf("matrix artifact: cell %d missing scenario/mechanism/load", i)
		}
		name := c.Scenario + "/" + c.Mechanism + "/" + c.Load
		if c.Error != "" {
			return nil, fmt.Errorf("matrix artifact: cell %s failed: %s", name, c.Error)
		}
		if c.Tuples <= 0 {
			return nil, fmt.Errorf("matrix artifact: cell %s has no tuples", name)
		}
		if c.RecoverMs < 0 || c.LagP99Ms < c.LagP50Ms {
			return nil, fmt.Errorf("matrix artifact: cell %s has inconsistent latencies", name)
		}
		if !c.ExactlyOnce {
			return nil, fmt.Errorf("matrix artifact: cell %s not exactly-once (missing=%d state_exact=%v)", name, c.Missing, c.StateExact)
		}
		if c.Scenario == ScenarioSlowNode && (c.SpuriousKill || !c.DegradedPath) {
			return nil, fmt.Errorf("matrix artifact: cell %s: spurious_kill=%v degraded_path=%v", name, c.SpuriousKill, c.DegradedPath)
		}
	}
	return &r, nil
}

// Format renders the report as an aligned table.
func (r *MatrixReport) Format() string { return alignMarkdown(r.Markdown()) }

// MatrixPreset returns the cell list for a named preset. "tiny" is the
// CI smoke subset; "full" is the committed matrix.
func MatrixPreset(preset string) ([]MatrixCellSpec, error) {
	sr3 := []string{MechSR3Star, MechSR3Line, MechSR3Tree}
	all := []string{MechSR3Star, MechSR3Line, MechSR3Tree, MechCheckpoint, MechReplication, MechFP4S}
	cells := func(scenario, load string, mechs []string) []MatrixCellSpec {
		out := make([]MatrixCellSpec, len(mechs))
		for i, m := range mechs {
			out[i] = MatrixCellSpec{Scenario: scenario, Mechanism: m, Load: load}
		}
		return out
	}
	switch preset {
	case "tiny":
		return []MatrixCellSpec{
			{Scenario: ScenarioCrash, Mechanism: MechSR3Star, Load: "burst"},
			{Scenario: ScenarioCrash, Mechanism: MechSR3Tree, Load: "burst"},
			{Scenario: ScenarioSlowNode, Mechanism: MechSR3Star, Load: "burst"},
			{Scenario: ScenarioSlowNode, Mechanism: MechSR3Tree, Load: "burst"},
		}, nil
	case "full":
		var out []MatrixCellSpec
		out = append(out, cells(ScenarioCrash, "burst", all)...)
		out = append(out, cells(ScenarioCrash2, "burst", []string{MechSR3Star, MechSR3Line, MechSR3Tree, MechFP4S})...)
		out = append(out, cells(ScenarioPartition, "burst", sr3)...)
		out = append(out, cells(ScenarioSlowNode, "burst", sr3)...)
		out = append(out, cells(ScenarioFlakyLink, "burst", []string{MechSR3Star, MechSR3Line, MechSR3Tree, MechFP4S})...)
		out = append(out, cells(ScenarioCrashIngest, "sustained-2k", all)...)
		out = append(out, cells(ScenarioCrashIngest, "sustained-8k", []string{MechSR3Star, MechSR3Tree})...)
		return out, nil
	default:
		return nil, fmt.Errorf("matrix: unknown preset %q (tiny, full)", preset)
	}
}

// MatrixSweep runs every cell on a fresh rig.
func MatrixSweep(specs []MatrixCellSpec) *MatrixReport {
	return &MatrixReport{Schema: MatrixSchema, Cells: sweep(specs, 1000, RunMatrixCell,
		func(c *MatrixCell) *string { return &c.Error })}
}

// RunMatrixCell builds one fresh rig and measures one cell. The seed
// keeps the ring and its chaos deterministic per cell.
func RunMatrixCell(spec MatrixCellSpec, seed int64) (MatrixCell, error) {
	cell := MatrixCell{Scenario: spec.Scenario, Mechanism: spec.Mechanism, Load: spec.Load}
	var scenario func(*rig, MatrixCellSpec, *MatrixCell) error
	switch spec.Scenario {
	case ScenarioCrash, ScenarioCrash2, ScenarioPartition, ScenarioFlakyLink:
		scenario = matrixBurst
	case ScenarioSlowNode:
		scenario = matrixSlowNode
	case ScenarioCrashIngest:
		scenario = matrixIngest
	default:
		return cell, fmt.Errorf("matrix: unknown scenario %q", spec.Scenario)
	}
	r, err := newRig(rigOpts{seed: seed, mechanism: spec.Mechanism, cfg: stream.Config{
		SaveEveryTuples: rigSaveEvery,
	}})
	if err != nil {
		return cell, err
	}
	defer r.Close()
	if err := scenario(r, spec, &cell); err != nil {
		return cell, err
	}
	cell.TuplesPerSec = float64(cell.Tuples) / time.Since(r.started).Seconds()
	a, err := r.audit()
	if err != nil {
		return cell, err
	}
	cell.Missing, cell.Duplicates, cell.StateExact = a.missing, a.duplicates, a.stateExact
	cell.ExactlyOnce = a.exactlyOnce()
	cell.LagP50Ms = float64(r.sink.lag.Quantile(0.50))
	cell.LagP99Ms = float64(r.sink.lag.Quantile(0.99))
	cell.LagMaxMs = float64(r.sink.lag.Max())
	return cell, nil
}

// burstPre / burstPost are the batches a burst cell pushes before and
// after its fault.
const burstPre, burstPost = 600, 600

// crashAndRecover is the manual fault trigger: the state owner (plus
// extra replica holders) dies, the task is killed and recovered by hand.
func crashAndRecover(r *rig, cell *MatrixCell, extraKills int) error {
	if err := r.killOwner(extraKills); err != nil {
		return err
	}
	recoverMs, err := r.crashTask()
	if err != nil {
		return err
	}
	cell.RecoverMs = recoverMs
	cell.Notes = "manual fault trigger"
	return nil
}

// matrixBurst is the manual-trigger family: pre-batch, save, fault,
// recover, post-batch. The scenarios differ only in what is armed before
// the crash.
func matrixBurst(r *rig, spec MatrixCellSpec, cell *MatrixCell) error {
	cell.Tuples = burstPre + burstPost
	r.pump(0, burstPre, 0)
	r.drain()
	extraKills := 0
	switch {
	case spec.Scenario == ScenarioFlakyLink && r.chaos != nil:
		// Arm the flaky links before the save so scatter, fetch and
		// failover all run over jittered, lossy paths.
		prefix := "sr3."
		if spec.Mechanism == MechFP4S {
			prefix = "fp4s."
		}
		r.chaos.SetLinkFaults(simnet.LinkFaults{
			DropProb:   0.02,
			DelayProb:  0.5,
			Delay:      1 * time.Millisecond,
			Jitter:     3 * time.Millisecond,
			KindPrefix: prefix,
		})
	case spec.Scenario == ScenarioCrash2:
		extraKills = 1
		if spec.Mechanism == MechFP4S {
			extraKills = 2 // (4,8)-RS shrugs off one loss; make it hurt
		}
	}
	if err := r.saveAll(); err != nil {
		return err
	}
	if spec.Scenario == ScenarioPartition && r.chaos != nil {
		// The partition fires on the first recovery-collect message —
		// i.e. mid-recovery, not before it — and heals shortly after;
		// failover retries must ride it out.
		trigger := map[string]string{
			MechSR3Star: "sr3.shard.fetchIndex",
			MechSR3Line: "sr3.line.collect",
			MechSR3Tree: "sr3.tree.collect",
		}[spec.Mechanism]
		live := r.ring.LiveIDs()
		r.chaos.SchedulePartition(simnet.PartitionSchedule{
			TriggerPrefix: trigger,
			AfterMessages: 1,
			Groups:        [][]id.ID{live[:len(live)/2], live[len(live)/2:]},
			HealAfter:     50 * time.Millisecond,
		})
	}
	if err := crashAndRecover(r, cell, extraKills); err != nil {
		return err
	}
	if spec.Scenario == ScenarioPartition {
		stats := r.chaos.Stats()
		if stats.PartitionsFired != 1 {
			return fmt.Errorf("matrix: partition did not fire (fired=%d)", stats.PartitionsFired)
		}
		cell.Notes = fmt.Sprintf("partition mid-collect, severed=%d", stats.Severed)
	}
	r.pump(burstPre, burstPre+burstPost, 0)
	r.drain()
	return nil
}

// matrixSlowNode is the gray-failure cell: a shard holder degrades (slow,
// not dead), the φ-detector demotes it, and the supervised recovery of a
// separately crashed owner must route around it — without the detector
// ever killing the slow node.
func matrixSlowNode(r *rig, spec MatrixCellSpec, cell *MatrixCell) error {
	mech, ok := sr3Mechanisms[spec.Mechanism]
	if !ok {
		return fmt.Errorf("matrix: %s needs an SR3 mechanism, got %q", spec.Scenario, spec.Mechanism)
	}
	cell.Tuples = burstPre + burstPost
	// Gray-tier transitions are chatty on a 24-node all-pairs detector
	// mesh; size the journal so the victim's demotion survives until the
	// post-recovery audit.
	flight := obs.NewFlightRecorder(1 << 15)
	sup := r.supervise(supervise.Config{
		Detector: detector.Config{
			Interval:       10 * time.Millisecond,
			Threshold:      8,
			Quorum:         2,
			DegradedRTT:    10 * time.Millisecond,
			MinDeadSilence: 60 * time.Millisecond,
		},
		RepairInterval: 50 * time.Millisecond,
		Flight:         flight,
		Escalation:     supervise.EscalationPolicy{DeadlineBase: 80 * time.Millisecond},
	})

	r.pump(0, burstPre, 0)
	r.drain()
	if err := r.saveAll(); err != nil {
		return err
	}
	sup.Protect(supervise.StateSpec{App: rigCountKey, Mechanism: mech, TaskBound: true})
	if err := sup.Start(); err != nil {
		return err
	}

	owner, err := r.owner()
	if err != nil {
		return err
	}
	// Degrade the closest non-owner node — a leaf-set shard holder.
	var victim id.ID
	for _, nid := range r.ring.SortedLiveByDistance(owner) {
		if nid != owner {
			victim = nid
			break
		}
	}
	r.chaos.Degrade(victim, simnet.Degradation{Slowdown: 25 * time.Millisecond})
	if err := waitUntil(10*time.Second, func() bool {
		return sup.Degraded(victim) && r.cluster.IsDegraded(victim)
	}); err != nil {
		return fmt.Errorf("matrix: victim never demoted: %w", err)
	}
	// Audit the demotion while its journal entry is fresh.
	for _, fe := range flight.Events() {
		if fe.Kind == obs.FlightDegraded && fe.Node == victim.Short() {
			cell.DegradedPath = true
		}
	}

	// Crash the owner: the supervisor must detect it, recover the task
	// through replicas while routing around the degraded holder.
	killedAt := time.Now()
	r.ring.Fail(owner)
	var ev supervise.Event
	if err := waitUntil(20*time.Second, func() bool {
		for _, cand := range sup.Events() {
			if cand.App == rigCountKey && cand.Err == nil && !cand.RecoveredAt.IsZero() {
				ev = cand
				return true
			}
		}
		return false
	}); err != nil {
		return fmt.Errorf("matrix: supervised recovery never completed: %w", err)
	}
	cell.DetectMs = ms(ev.DetectedAt.Sub(killedAt))
	cell.RecoverMs = ms(ev.RecoveredAt.Sub(killedAt))

	// Spurious kill = the slow-but-alive victim was treated as dead.
	cell.SpuriousKill = !r.ring.Net.Alive(victim)
	for _, cand := range sup.Events() {
		if cand.Node == victim {
			cell.SpuriousKill = true
		}
	}
	cell.Notes = "supervised; degraded holder demoted, not killed"

	r.pump(burstPre, burstPre+burstPost, 0)
	r.drain()
	return nil
}

// matrixIngest crashes the operator mid-stream while the pump keeps
// offering at the configured rate: the exactly-once verdict covers tuples
// that arrived while the task was dead.
func matrixIngest(r *rig, spec MatrixCellSpec, cell *MatrixCell) error {
	rate, total, err := parseSustainedLoad(spec.Load)
	if err != nil {
		return err
	}
	cell.Tuples = total
	killAt := total * 2 / 5
	r.pump(0, killAt, rate)
	if err := r.saveAll(); err != nil {
		return err
	}
	r.pumpAsync(killAt, total, rate)
	err = crashAndRecover(r, cell, 0)
	r.pumps.Wait()
	if err != nil {
		return err
	}
	r.drain()
	return nil
}

// parseSustainedLoad maps "sustained-2k" → (2000 tuples/s, 1.5s worth).
func parseSustainedLoad(load string) (rate, total int, err error) {
	s := strings.TrimPrefix(load, "sustained-")
	s = strings.TrimSuffix(s, "k")
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, 0, fmt.Errorf("matrix: bad sustained load %q", load)
	}
	rate = n * 1000
	return rate, rate * 3 / 2, nil
}
