package recovery

import (
	"fmt"
	"math"

	"sr3/internal/id"
	"sr3/internal/shard"
	"sr3/internal/simnet"
)

// PlanStage is one provider in a timed recovery plan: a simulated node
// name and the shard bytes it contributes.
type PlanStage struct {
	Node  string
	Bytes float64
	// Fallbacks counts dead replica holders that were probed before a
	// live one answered for this stage's shards; each probe costs the
	// spec's FailureDetectDelay before the stage's data can flow.
	Fallbacks int
	// Straggler marks a provider whose effective rate has collapsed
	// (disk contention, GC pauses). With Options.Speculate the planner
	// hedges such stages with a backup replica fetch (paper §6 future
	// work); without it the stage is on the critical path.
	Straggler bool
	// Backup names an alternate replica holder speculation may fetch
	// this stage's shards from (empty = no alternate known).
	Backup string
}

// PlanSpec describes one state recovery for the timed planners. The
// figure benchmarks build specs from real DHT placements; unit tests
// build them directly.
type PlanSpec struct {
	App         string
	TotalBytes  float64
	Stages      []PlanStage
	Replacement string
	// RouteDelay models per-message DHT routing/connection latency.
	RouteDelay float64
	// FailureDetectDelay is the timeout paid per dead replica holder
	// probed during provider selection (Fig 10's failure sweeps).
	FailureDetectDelay float64
	// FlowPenalty models the software cost of many concurrent inbound
	// connections at one receiver (buffer churn, per-connection
	// framing): every transfer in an n-flow convergence is inflated to
	// bytes·(1 + FlowPenalty·ln n). This is what makes star's
	// single-replacement ingest degrade as provider counts grow — the
	// paper's "all traffic flows to a single node" bottleneck. 0 = off.
	FlowPenalty float64
	// StoreForwardBeta models line recovery's imperfect pipelining: each
	// chain stage re-buffers a fraction beta of the stream it relays, so
	// the replacement's restore grows by beta·Σ(per-link volume). This
	// is the cost of the "longest lineage path" (Fig 8a) and why line
	// "disregards bandwidth asymmetry" (§3.5). 0 = off.
	StoreForwardBeta float64
	// SpeculationDelay is how long the replacement waits before hedging
	// a straggler stage with a backup fetch (Options.Speculate).
	SpeculationDelay float64
}

// flowFactor returns the byte inflation for an n-flow convergence.
func (s PlanSpec) flowFactor(flows int) float64 {
	if flows <= 1 || s.FlowPenalty <= 0 {
		return 1
	}
	return 1 + s.FlowPenalty*math.Log(float64(flows))
}

// stageDelay is the extra start latency a stage pays for probing dead
// replica holders.
func (s PlanSpec) stageDelay(st PlanStage) float64 {
	return float64(st.Fallbacks) * s.FailureDetectDelay
}

// Planner emits simnet task DAGs for recovery mechanisms. One Planner can
// compose several plans (multi-failure experiments) into a single DAG
// with unique task IDs.
type Planner struct {
	b *simnet.PlanBuilder
}

// NewPlanner returns an empty planner.
func NewPlanner() *Planner { return &Planner{b: simnet.NewPlanBuilder()} }

// Tasks returns the composed DAG.
func (p *Planner) Tasks() []simnet.Task { return p.b.Tasks() }

func (p *Planner) transfer(from, to string, bytes, delay float64, label string, deps ...simnet.TaskID) simnet.TaskID {
	return p.b.Transfer(from, to, bytes, delay, label, deps...)
}

func (p *Planner) compute(node string, bytes float64, label string, deps ...simnet.TaskID) simnet.TaskID {
	return p.b.Compute(node, bytes, label, deps...)
}

// Star emits the star-structured plan (paper §3.4): all providers upload
// to the replacement in parallel; the replacement merges everything.
// Returns the ID of the final task.
func (p *Planner) Star(spec PlanSpec, opts Options) simnet.TaskID {
	// The star fan-out bit widens the replacement's request-dispatch
	// window: fetch requests go out in waves of 4·2^bit, successive waves
	// one routing delay apart. The structure stays depth-1, which is why
	// Fig 9a's curves are nearly flat in the fan-out bit.
	slots := 8 << clampBit(opts.StarFanoutBit)
	flows := 0
	for _, st := range spec.Stages {
		if st.Node != spec.Replacement {
			flows++
		}
	}
	factor := spec.flowFactor(flows)
	deps := make([]simnet.TaskID, 0, len(spec.Stages))
	sent := 0
	for i, st := range spec.Stages {
		if st.Node == spec.Replacement {
			continue // local shards need no transfer
		}
		wave := float64(1 + sent/slots)
		sent++
		bytes := st.Bytes * factor
		hedged := opts.Speculate && st.Straggler && st.Backup != ""
		if hedged {
			// The straggler's fetch is cancelled once the backup wins:
			// a quarter of its volume is wasted before the abort.
			bytes /= 4
		}
		primary := p.transfer(st.Node, spec.Replacement, bytes,
			spec.RouteDelay*wave+spec.stageDelay(st),
			fmt.Sprintf("%s/star/up%d", spec.App, i))
		if hedged {
			// Hedge: a backup replica fetch starts after the speculation
			// delay, and the merge waits only for it (the cancelled
			// primary above just wastes some bandwidth).
			_ = primary
			backup := p.transfer(st.Backup, spec.Replacement, st.Bytes*factor,
				spec.RouteDelay*wave+spec.SpeculationDelay,
				fmt.Sprintf("%s/star/spec%d", spec.App, i))
			deps = append(deps, backup)
			continue
		}
		deps = append(deps, primary)
	}
	// The replacement deserializes and reassembles the whole state.
	return p.compute(spec.Replacement, spec.TotalBytes, spec.App+"/star/merge", deps...)
}

// splitHedged partitions the spec's stages into structure members and
// straggler stages that speculation lifts out of the structure entirely.
// This mirrors the executor's failover ladder: line replans its chain
// around a slow or dead member, tree degrades a failed subtree, and in
// both cases the displaced shards are fetched star-style straight from a
// backup replica. Without Options.Speculate all stages stay in place.
func splitHedged(spec PlanSpec, opts Options) (kept, hedged []PlanStage) {
	if !opts.Speculate {
		return spec.Stages, nil
	}
	for _, st := range spec.Stages {
		if st.Straggler && st.Backup != "" {
			hedged = append(hedged, st)
			continue
		}
		kept = append(kept, st)
	}
	return kept, hedged
}

// hedge emits the degraded direct fetches for stages speculation lifted
// out of a line/tree structure: a quarter of the straggler's volume is
// wasted before its in-structure stream is abandoned, then the backup
// replica uploads the full stage to the replacement after the
// speculation delay. Returns the tasks the final restore must wait for.
func (p *Planner) hedge(spec PlanSpec, hedged []PlanStage, scheme string) []simnet.TaskID {
	deps := make([]simnet.TaskID, 0, len(hedged))
	for i, st := range hedged {
		p.transfer(st.Node, spec.Replacement, st.Bytes/4,
			spec.RouteDelay+spec.stageDelay(st),
			fmt.Sprintf("%s/%s/abort%d", spec.App, scheme, i))
		deps = append(deps, p.transfer(st.Backup, spec.Replacement, st.Bytes,
			spec.RouteDelay+spec.SpeculationDelay,
			fmt.Sprintf("%s/%s/spec%d", spec.App, scheme, i)))
	}
	return deps
}

// mergeCheapFactor reflects that concatenating already-reconstructed
// shards is much cheaper than the full deserialize-and-merge the star
// replacement performs: line/tree stages pay 1/5 of the byte cost.
const mergeCheapFactor = 5

// tokenBytes is the size of the pipeline-fill control message that
// staggers line stages.
const tokenBytes = 1024

// Line emits the line-structured plan (paper §3.5): the state streams
// along the provider chain, every stage merging its own shards into the
// passing flow. The chain is pipelined: stage k's bulk transfer starts one
// routing delay after stage k-1's (a control-token chain), and the bulk
// transfers then run concurrently — each link still carries the full
// accumulated volume, so the last link carries the whole state.
// opts.LinePathLength regroups providers into that many stages (0 = one
// stage per provider; Fig 9b sweeps this).
func (p *Planner) Line(spec PlanSpec, opts Options) simnet.TaskID {
	chain, hedgedStages := splitHedged(spec, opts)
	restoreDeps := p.hedge(spec, hedgedStages, "line")
	stages := regroupStages(chain, opts.LinePathLength)
	if len(stages) == 0 {
		return p.compute(spec.Replacement, spec.TotalBytes/mergeCheapFactor, spec.App+"/line/restore", restoreDeps...)
	}
	acc := 0.0
	var token simnet.TaskID
	hasToken := false
	var lastBulk simnet.TaskID
	for k, st := range stages {
		acc += st.Bytes
		next := spec.Replacement
		if k < len(stages)-1 {
			next = stages[k+1].Node
		}
		var deps []simnet.TaskID
		if hasToken {
			deps = append(deps, token)
		}
		// Bulk stream of everything accumulated so far; imperfect
		// pipelining re-buffers a beta fraction of the relayed stream.
		lastBulk = p.transfer(st.Node, next, acc*(1+spec.StoreForwardBeta),
			spec.RouteDelay+spec.stageDelay(st),
			fmt.Sprintf("%s/line/stream%d", spec.App, k), deps...)
		// Cheap merge of the stream at the receiver.
		if k < len(stages)-1 {
			p.compute(next, acc/mergeCheapFactor, fmt.Sprintf("%s/line/merge%d", spec.App, k), lastBulk)
			// Pipeline-fill token releases the next stage quickly.
			token = p.transfer(st.Node, next, tokenBytes, spec.RouteDelay,
				fmt.Sprintf("%s/line/token%d", spec.App, k), deps...)
			hasToken = true
		}
	}
	return p.compute(spec.Replacement, spec.TotalBytes/mergeCheapFactor, spec.App+"/line/restore",
		append(restoreDeps, lastBulk)...)
}

// Tree emits the tree-structured plan (paper §3.6): providers form
// fanout-many branches hanging directly off the replacement (the
// spanning tree of Figs 5/6); within a branch, sub-shards stream toward
// the branch head in a pipelined chain with cheap merging, all branches
// in parallel, and every branch head uploads its aggregate to the
// replacement concurrently. Merging is fully distributed and the
// replacement only pays a light restore pass — the "many paths
// recovering at the same time in parallel" property.
//
// opts.TreeFanoutBit sets the branch count (2^bit branches, Fig 9d);
// opts.TreeBranchDepth caps each branch's length (Fig 9c). Building the
// tree costs one routing delay per level before data can flow (the
// paper's Scribe join/collect propagation).
func (p *Planner) Tree(spec PlanSpec, opts Options) simnet.TaskID {
	fanout := 1 << clampBit(opts.TreeFanoutBit)
	depth := opts.TreeBranchDepth
	if depth <= 0 {
		depth = 1 << 20 // uncapped
	}
	members, hedgedStages := splitHedged(spec, opts)
	restoreDeps := p.hedge(spec, hedgedStages, "tree")
	stages := regroupStages(members, fanout*depth)
	if len(stages) == 0 {
		return p.compute(spec.Replacement, spec.TotalBytes/mergeCheapFactor, spec.App+"/tree/restore", restoreDeps...)
	}

	// Contiguous branches of at most `depth` members.
	branchLen := (len(stages) + fanout - 1) / fanout
	if branchLen > depth {
		branchLen = depth
	}
	if branchLen < 1 {
		branchLen = 1
	}
	// Tree construction costs a join plus a collect round before the
	// heads can stream (the paper's Scribe join + collect request).
	setup := 2 * spec.RouteDelay

	type headTransfer struct {
		node  string
		bytes float64
		delay float64
	}
	var finals []headTransfer
	idx := 0
	for b := 0; idx < len(stages); b++ {
		branch := stages[idx:minInt(idx+branchLen, len(stages))]
		idx += len(branch)
		// Positions: branch[0] is the head (closest to the replacement).
		// The start signal reaches position j after (j+1) routing delays;
		// bulk streams then flow concurrently toward the head, each link
		// carrying everything accumulated from the tail side.
		cum := make([]float64, len(branch))
		total := 0.0
		for j := len(branch) - 1; j >= 0; j-- {
			total += branch[j].Bytes
			cum[j] = total
		}
		for j := len(branch) - 1; j >= 1; j-- {
			t := p.transfer(branch[j].Node, branch[j-1].Node, cum[j],
				setup+spec.RouteDelay*float64(j+1)+spec.stageDelay(branch[j]),
				fmt.Sprintf("%s/tree/b%d-up%d", spec.App, b, j))
			// Cheap merge of the inbound stream at the receiver.
			p.compute(branch[j-1].Node, cum[j]/mergeCheapFactor,
				fmt.Sprintf("%s/tree/b%d-merge%d", spec.App, b, j-1), t)
		}
		// The head streams the branch aggregate to the replacement. Its
		// first relayed bytes only exist once the start signal has walked
		// the branch and the tail's stream has begun flowing back — one
		// routing delay per branch level.
		finals = append(finals, headTransfer{
			node:  branch[0].Node,
			bytes: cum[0],
			delay: setup + spec.RouteDelay*float64(len(branch)) + spec.stageDelay(branch[0]),
		})
	}
	// No flow penalty here: the tree bounds its fan-in by construction
	// ("respects bandwidth asymmetry", §3.6), unlike star's uncontrolled
	// convergence.
	deps := append([]simnet.TaskID(nil), restoreDeps...)
	for b, h := range finals {
		deps = append(deps, p.transfer(h.node, spec.Replacement, h.bytes, h.delay,
			fmt.Sprintf("%s/tree/final%d", spec.App, b)))
	}
	return p.compute(spec.Replacement, spec.TotalBytes/mergeCheapFactor, spec.App+"/tree/restore", deps...)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SaveSpec describes a timed state-save plan (Fig 8c).
type SaveSpec struct {
	App        string
	Owner      string
	TotalBytes float64
	// Targets receive one shard-replica batch each, written serially
	// (matching the prototype's fair-comparison setup).
	Targets    []PlanStage
	RouteDelay float64
}

// Save emits the SR3 save plan: split+replicate compute at the owner,
// then serial pushes of each target's batch.
func (p *Planner) Save(spec SaveSpec) simnet.TaskID {
	// Partitioning and replication touch every byte once per copy.
	var replicated float64
	for _, t := range spec.Targets {
		replicated += t.Bytes
	}
	last := p.compute(spec.Owner, spec.TotalBytes+replicated, spec.App+"/save/split")
	for i, t := range spec.Targets {
		if t.Node == spec.Owner {
			continue
		}
		last = p.transfer(spec.Owner, t.Node, t.Bytes, spec.RouteDelay,
			fmt.Sprintf("%s/save/push%d", spec.App, i), last)
	}
	return last
}

// regroupStages merges adjacent stages so at most n remain (n <= 0 keeps
// the input). Bytes are summed; the merged stage keeps the first node of
// its group (its members co-locate their uploads for the plan's purposes).
func regroupStages(stages []PlanStage, n int) []PlanStage {
	if n <= 0 || len(stages) <= n {
		return stages
	}
	out := make([]PlanStage, 0, n)
	base, rem := len(stages)/n, len(stages)%n
	idx := 0
	for g := 0; g < n; g++ {
		size := base
		if g < rem {
			size++
		}
		merged := stages[idx]
		for k := 1; k < size; k++ {
			merged.Bytes += stages[idx+k].Bytes
			merged.Fallbacks += stages[idx+k].Fallbacks
		}
		out = append(out, merged)
		idx += size
	}
	return out
}

// treeCapacity is the number of nodes in a complete fanout-ary tree of
// the given depth (root depth = 1), capped to avoid overflow.
func treeCapacity(fanout, depth int) int {
	total := 0
	width := 1
	for d := 0; d < depth; d++ {
		total += width
		if total > 1<<20 {
			return 1 << 20
		}
		width *= fanout
	}
	return total
}

// StagesFromPlacement is the timed planners' view of planStages: the same
// provider choice the real executors make, with each stage carrying its
// shard bytes and the dead replica holders probed before a live one
// answered (each costs the spec's FailureDetectDelay). Node names are the
// holders' ID strings.
func StagesFromPlacement(p shard.Placement, alive func(id.ID) bool, replacement id.ID) ([]PlanStage, error) {
	stages, err := planStages(p, allIndices(p), replacement, func(h id.ID, _ int) bool { return alive(h) }, nil)
	if err != nil {
		return nil, err
	}
	out := make([]PlanStage, len(stages))
	for k, st := range stages {
		out[k].Node = st.Node.String()
		for _, i := range st.Indices {
			out[k].Bytes += float64(indexLen(p, i))
			probed := 0
			for _, h := range p.NodesForIndex(i) {
				if alive(h) {
					break
				}
				probed++
			}
			out[k].Fallbacks = max(out[k].Fallbacks, probed)
		}
	}
	return out, nil
}
