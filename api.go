package sr3

import (
	"fmt"
	"sort"
	"strings"

	"sr3/internal/id"
	"sr3/internal/recovery"
	"sr3/internal/shard"
	"sr3/internal/state"
	"sr3/internal/supervise"
)

// This file implements the SR3 user API of paper Table 2, adapted to Go
// conventions (errors instead of booleans, byte slices instead of Java
// strings). The Framework runs the whole substrate in one process; for
// the multi-process deployment of the same Save/Recover/Protect
// contract — real daemons, TCP scatter, star fetch across processes —
// see cmd/sr3node and internal/cluster.

// StateSplit partitions a state into numberOfShards shards and creates
// numberOfReplicas replicas of each — Table 2 StateSplit. The returned
// list contains every replica; their bytes are views of stateBytes, not
// copies. Most callers use Save, which splits, replicates, places and
// writes in one step.
func (f *Framework) StateSplit(stateBytes []byte, numberOfShards, numberOfReplicas int) ([]Shard, error) {
	owner, ok := f.ring.ClosestLive(id.HashKey("statesplit"))
	if !ok {
		return nil, fmt.Errorf("sr3: %w: no live nodes", ErrBadArgument)
	}
	shards, err := shard.Split("statesplit", owner, stateBytes, numberOfShards, state.Version{})
	if err != nil {
		return nil, fmt.Errorf("sr3: %w", err)
	}
	reps, err := shard.Replicate(shards, numberOfReplicas)
	if err != nil {
		return nil, fmt.Errorf("sr3: %w", err)
	}
	return reps, nil
}

// Save splits appName's state into this app's configured shard and
// replica counts and writes the replicas into the overlay (the owner's
// leaf set) — Table 2 Save. The owner is the live node closest to the
// app's key. stateBytes stays the caller's: the recovery layer borrows it
// for the call and keeps nothing of it — the holders keep copies.
func (f *Framework) Save(appName string, stateBytes []byte) error {
	f.mu.Lock()
	ac := f.app(appName)
	m, r := ac.shards, ac.replicas
	ac.lastSize = int64(len(stateBytes))
	mech, opts := ac.mechanism, ac.options
	sup := f.sup
	f.mu.Unlock()

	owner, ok := f.ring.ClosestLive(id.HashKey(appName))
	if !ok {
		return fmt.Errorf("sr3: save %q: no live nodes", appName)
	}
	mgr := f.cluster.Manager(owner)
	v := mgr.NextVersion(f.cfg.Now())
	if _, err := mgr.Save(appName, stateBytes, m, r, v); err != nil {
		return fmt.Errorf("sr3: save %q: %w", appName, err)
	}
	if sup != nil {
		// Supervised mode: every saved state is self-healing from here on.
		sup.Protect(supervise.StateSpec{
			App:        appName,
			Mechanism:  mech,
			Options:    opts,
			StateBytes: int64(len(stateBytes)),
		})
	}
	return nil
}

// StarDefine pins appName to star-structured recovery with the given
// fan-out bit — Table 2 StarDefine.
func (f *Framework) StarDefine(appName string, starFanout int) error {
	if starFanout < 0 {
		return fmt.Errorf("sr3: star fan-out %d: %w", starFanout, ErrBadArgument)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ac := f.app(appName)
	ac.mechanism = Star
	ac.options.StarFanoutBit = starFanout
	return nil
}

// LineDefine pins appName to line-structured recovery with the given
// path length — Table 2 LineDefine.
func (f *Framework) LineDefine(appName string, lengthOfPath int) error {
	if lengthOfPath < 0 {
		return fmt.Errorf("sr3: path length %d: %w", lengthOfPath, ErrBadArgument)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ac := f.app(appName)
	ac.mechanism = Line
	ac.options.LinePathLength = lengthOfPath
	return nil
}

// TreeDefine pins appName to tree-structured recovery with the given
// fan-out bit and branch depth — Table 2 TreeDefine.
func (f *Framework) TreeDefine(appName string, fanout, branchDepth int) error {
	if fanout < 0 || branchDepth < 0 {
		return fmt.Errorf("sr3: tree fanout %d depth %d: %w", fanout, branchDepth, ErrBadArgument)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ac := f.app(appName)
	ac.mechanism = Tree
	ac.options.TreeFanoutBit = fanout
	ac.options.TreeBranchDepth = branchDepth
	return nil
}

// SetSharding overrides an app's shard and replica counts.
func (f *Framework) SetSharding(appName string, shards, replicas int) error {
	if shards <= 0 || replicas <= 0 {
		return fmt.Errorf("sr3: shards %d replicas %d: %w", shards, replicas, ErrBadArgument)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ac := f.app(appName)
	ac.shards = shards
	ac.replicas = replicas
	return nil
}

// Selection runs the §3.7 heuristic for appName — Table 2 Selection. The
// requirement string carries the QoS keywords the prototype accepts
// ("latency-sensitive", "many-failures"); stateSize is in bytes and
// networkBW in bits/s (a value under 1 Gb/s counts as constrained). The
// chosen mechanism is registered for the app and returned.
func (f *Framework) Selection(appName, requirement string, stateSize, networkBW int64) (Mechanism, error) {
	req := recovery.Requirements{
		StateBytes:           stateSize,
		BandwidthConstrained: networkBW > 0 && networkBW < 1_000_000_000,
		LatencySensitive:     strings.Contains(requirement, "latency-sensitive"),
		ExpectManyFailures:   strings.Contains(requirement, "many-failures"),
		Stateless:            strings.Contains(requirement, "stateless"),
	}
	d := recovery.Select(req)
	if !d.UseSR3 {
		return 0, fmt.Errorf("sr3: selection for %q: %s", appName, d.Reason)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ac := f.app(appName)
	ac.mechanism = d.Mechanism
	ac.options = d.Options
	ac.lastSize = stateSize
	return d.Mechanism, nil
}

// RecoveryReport describes one completed recovery.
type RecoveryReport struct {
	App         string
	Mechanism   Mechanism
	Replacement NodeID
	State       []byte
	Providers   int
}

// Recover rebuilds appName's state after failures — Table 2 Recover. The
// mechanism is the one registered by StarDefine/LineDefine/TreeDefine/
// Selection, or the one the heuristic selects for the saved state's size.
func (f *Framework) Recover(appName string) (*RecoveryReport, error) {
	f.mu.Lock()
	ac := f.app(appName)
	mech := ac.mechanism
	opts := ac.options
	f.mu.Unlock()

	res, v, err := f.cluster.Recover(appName, mech, opts)
	if err != nil {
		return nil, fmt.Errorf("sr3: recover %q: %w", appName, err)
	}
	defer v.Release()
	return &RecoveryReport{
		App:         appName,
		Mechanism:   res.Mechanism,
		Replacement: res.Replacement,
		State:       v.Join(),
		Providers:   res.Providers,
	}, nil
}

// HealReport describes one automatic repair pass.
type HealReport struct {
	// Checked is the number of registered states examined.
	Checked int
	// Recovered lists states whose owner was found dead and whose state
	// was rebuilt and re-protected at a replacement.
	Recovered []RecoveryReport
}

// Heal scans every state this framework has saved, detects dead owners,
// and recovers + re-protects each affected state at a live replacement
// (using the app's registered mechanism or the selection heuristic).
// It is the self-healing loop a supervisor would run after failures.
func (f *Framework) Heal() (*HealReport, error) {
	f.mu.Lock()
	names := make([]string, 0, len(f.apps))
	for name := range f.apps {
		names = append(names, name)
	}
	f.mu.Unlock()
	sort.Strings(names)

	report := &HealReport{}
	for _, name := range names {
		owner, err := f.OwnerOf(name)
		if err != nil {
			continue // never saved (only Defined), nothing to heal
		}
		report.Checked++
		if f.ring.Net.Alive(owner) {
			continue
		}
		f.mu.Lock()
		ac := f.app(name)
		mech, opts := ac.mechanism, ac.options
		f.mu.Unlock()
		res, v, err := f.cluster.RecoverAndReprotect(name, mech, opts)
		if err != nil {
			return report, fmt.Errorf("sr3: heal %q: %w", name, err)
		}
		report.Recovered = append(report.Recovered, RecoveryReport{
			App:         name,
			Mechanism:   res.Mechanism,
			Replacement: res.Replacement,
			State:       v.Join(),
			Providers:   res.Providers,
		})
		v.Release()
	}
	return report, nil
}
