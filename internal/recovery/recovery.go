// Package recovery implements SR3's contribution: customizable,
// DHT-based parallel state recovery for stateful stream operators
// (paper §3). State snapshots are split into m shards × r replicas and
// scattered over the owner's leaf set (Save). When operators fail, lost
// state is rebuilt by one of three mechanisms:
//
//   - star (§3.4): every provider uploads its shard directly to the
//     replacement node, which reassembles — fastest for small state.
//   - line (§3.5): shards are merged along a chain of providers, so the
//     download/merge load is spread — good for large state with
//     abundant bandwidth.
//   - tree (§3.6): sub-shards are recombined up a fan-out forest built
//     straight from the placement's provider stages (buildForest; the
//     paper builds it over Scribe) — balances load with bounded fan-out,
//     best under bandwidth constraints and many simultaneous failures.
//
// Each mechanism exists twice, sharing one shard-placement source of
// truth and one provider planner (planStages): a real executor, Manager,
// that moves actual bytes over whatever Overlay it is attached to — a DHT
// node in process (tests, examples, the stream runtime), the cluster view
// in the sr3node daemon — and a timed planner that emits a simnet task DAG
// for virtual-time figure benchmarks.
package recovery

import (
	"errors"
	"fmt"
	"time"

	"sr3/internal/obs"
	"sr3/internal/overload"
)

// Mechanism selects the recovery structure.
type Mechanism int

// Mechanisms (paper §3.4–3.6).
const (
	Star Mechanism = iota + 1
	Line
	Tree
)

// String implements fmt.Stringer.
func (m Mechanism) String() string {
	switch m {
	case Star:
		return "star"
	case Line:
		return "line"
	case Tree:
		return "tree"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Options carries the per-mechanism tuning knobs exposed by the SR3 API
// (paper Table 2: StarDefine / LineDefine / TreeDefine).
type Options struct {
	// StarFanoutBit is the star fan-out exponent (providers contacted in
	// parallel = all; the bit widens concurrent slots; Fig 9a).
	StarFanoutBit int
	// LinePathLength is the number of chain stages (Fig 9b).
	LinePathLength int
	// TreeFanoutBit is the tree fan-out exponent: fan-out = 2^bit (Fig 9d).
	TreeFanoutBit int
	// TreeBranchDepth caps the tree depth (Fig 9c).
	TreeBranchDepth int
	// Speculate hedges slow or lost providers with a concurrent request
	// to the next replica (straggler mitigation, paper §6 future work).
	// All three mechanisms honor it: the star executor and planner hedge
	// the initial fetches, and the line/tree planners hedge straggler
	// stages with their Backup replica. It complements — not replaces —
	// the failover ladder below, which handles providers that are
	// actually dead rather than merely slow.
	Speculate bool
	// FailoverRetries bounds how many extra passes the failover logic
	// makes over a shard's replica holders after a provider loss: star
	// retry rounds, line chain replans, and tree sub-shard refetches all
	// count against it. 0 still allows one full pass over the replicas.
	FailoverRetries int
	// RetryBackoff is the pause before the first failover pass; it
	// doubles on every subsequent pass (exponential backoff), giving
	// transiently-dead providers time to come back.
	RetryBackoff time.Duration
	// Tracer, when non-nil, records per-phase spans for this recovery
	// (plan, fetch, collect, merge — see internal/obs). Nil falls back to
	// the cluster's tracer; nil everywhere disables tracing at zero cost.
	Tracer *obs.Tracer
	// TraceParent parents the recovery's spans — typically the
	// supervisor's selfheal root — so one failure yields one connected
	// trace. An invalid (zero) parent starts a fresh trace.
	//
	// Both fields are comparable (a pointer and two uint64s), keeping
	// Options usable as a == operand and map key.
	TraceParent obs.SpanContext
	// RetryBudget, when non-nil, gates every failover retry pass (star
	// retry rounds, line replans) through a shared token-bucket budget:
	// the first pass over the replicas is always free, but each extra
	// pass must be funded, and successful fetches earn tokens back. A
	// fleet-wide budget shared across concurrent recoveries caps the
	// total retry amplification a mass failure can generate, so retry
	// storms cannot pile onto already-struggling providers. Nil keeps
	// the unbudgeted FailoverRetries behaviour. (A pointer, so Options
	// stays ==-comparable.)
	RetryBudget *overload.Budget
}

const (
	// fetchConcurrency is how many provider fetches the star executor
	// (and the degraded-to-star tail of line/tree) keeps in flight at
	// once — the data plane's worker pool width. At 64 MB over TCP, 8
	// against 4 read star 42.5 vs 199.6 ms, line 176.6 vs 361.4 ms and
	// tree 90.3 vs 95.4 ms (EXPERIMENTS.md, "Data-plane experiment").
	fetchConcurrency = 8
	// pipelineDepth is how many concurrent sub-chains the line executor
	// cuts the provider chain into, so merging one segment's shards
	// overlaps the next segment's transfer.
	pipelineDepth = 2
)

// DefaultOptions returns the defaults used by the evaluation unless a
// figure sweeps a knob.
func DefaultOptions() Options {
	return Options{
		StarFanoutBit:   1,
		LinePathLength:  0, // 0 = one stage per shard
		TreeFanoutBit:   1,
		TreeBranchDepth: 8,
		FailoverRetries: 3,
		RetryBackoff:    10 * time.Millisecond,
	}
}

// Errors.
var (
	ErrNoPlacement   = errors.New("recovery: no placement recorded for state")
	ErrShardLost     = errors.New("recovery: some shard has no live replica")
	ErrNoReplacement = errors.New("recovery: no live node available as replacement")
	ErrBadMechanism  = errors.New("recovery: unknown mechanism")
	// ErrReplicasExhausted is the failover ladder's floor: every replica
	// of some shard was tried (with retries and backoff) and none answered.
	ErrReplicasExhausted = errors.New("recovery: all replicas of a shard exhausted")
	// ErrMisrouted reports a line/tree collect message delivered to a
	// node that is not the stage it was built for (stale plan or overlay
	// churn between planning and execution).
	ErrMisrouted = errors.New("recovery: collect message misrouted")
	// ErrSaveAborted reports a Save interrupted by leaf-set churn: a
	// shard push failed or a target departed before the placement was
	// published. Nothing was published; the caller may retry.
	ErrSaveAborted = errors.New("recovery: save aborted by leaf-set churn")
	// ErrRetryBudget reports a failover retry pass suppressed by
	// Options.RetryBudget: replicas remained untried, but the shared
	// budget refused to fund another pass. It arrives wrapped with
	// ErrReplicasExhausted so existing ladders treat it as exhaustion.
	ErrRetryBudget = errors.New("recovery: failover retry budget exhausted")
)

// Outcome reports how a recovery weathered provider faults. It is
// attached to every Result so operators and the bench harness can see
// what the failover ladder actually did.
type Outcome struct {
	// Attempts counts collection passes: the initial one plus every
	// retry round or chain replan.
	Attempts int
	// Failovers counts shard fetches that succeeded only after being
	// redirected to another replica or retried.
	Failovers int
	// RetriedBytes sums the shard bytes obtained through those failover
	// fetches.
	RetriedBytes int
	// DeadProviders counts distinct providers observed unreachable
	// mid-recovery.
	DeadProviders int
	// Degraded reports that the mechanism fell down the failover ladder
	// (line/tree finishing some shards star-style); DegradedTo names the
	// rung that finished the job.
	Degraded   bool
	DegradedTo Mechanism
}
