package bench

import (
	"fmt"

	"sr3/internal/recovery"
	"sr3/internal/simnet"
)

// Ablation experiments isolate the model terms behind the headline
// results (DESIGN.md §6): what each design choice contributes to the
// figures.

// stragglerRecovery plans a 64 MB recovery with the given scheme in which
// the provider of the largest stage runs slowdown× slower (upload and
// compute), a backup replica is available for hedging after
// SpeculationDelay, and returns the simulated makespan.
func stragglerRecovery(scheme string, speculate bool, slowdown float64) (float64, error) {
	sc := Unconstrained()
	env, err := newPlanEnv(envConfig{
		seed: 42, totalBytes: 64 * MB, shards: 16, replicas: 2,
	})
	if err != nil {
		return 0, err
	}
	spec := env.spec(sc)
	spec.SpeculationDelay = 2.0
	// Mark the largest stage as the straggler and give it a backup (any
	// other provider).
	big := 0
	for i := range spec.Stages {
		if spec.Stages[i].Bytes > spec.Stages[big].Bytes {
			big = i
		}
	}
	spec.Stages[big].Straggler = true
	spec.Stages[big].Backup = spec.Stages[(big+1)%len(spec.Stages)].Node

	sim := sc.NewSim()
	sim.SetNode(spec.Stages[big].Node, simnet.Res{
		UpBps:      LanBps / slowdown,
		DownBps:    LanBps,
		ComputeBps: SoftwareBps / slowdown,
	})
	opts := recovery.DefaultOptions()
	opts.Speculate = speculate
	p := recovery.NewPlanner()
	switch scheme {
	case "star":
		p.Star(spec, opts)
	case "line":
		p.Line(spec, opts)
	default:
		p.Tree(spec, opts)
	}
	res, err := sim.Run(p.Tasks())
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// stragglerFigure sweeps the straggler slowdown for each scheme, with
// and without speculation, one series per (scheme, speculate) pair.
func stragglerFigure(fig Figure, label func(scheme string, speculate bool) string, schemes ...string) (Figure, error) {
	fig.XLabel = "straggler slowdown (x)"
	fig.YLabel = "recovery time (s)"
	for _, scheme := range schemes {
		for _, speculate := range []bool{false, true} {
			s := Series{Label: label(scheme, speculate)}
			for _, slowdown := range []float64{1, 4, 16, 64} {
				makespan, err := stragglerRecovery(scheme, speculate, slowdown)
				if err != nil {
					return Figure{}, err
				}
				s.X = append(s.X, slowdown)
				s.Y = append(s.Y, makespan)
			}
			fig.Series = append(fig.Series, s)
		}
	}
	return fig, nil
}

// AblationSpeculation measures straggler impact on star recovery of a
// 64 MB state: one provider's upload collapses to slowRate; with
// speculation the replacement hedges that stage from a backup replica
// after SpeculationDelay (paper §6 future work).
func AblationSpeculation() (Figure, error) {
	return stragglerFigure(Figure{
		ID:    "ablation-speculation",
		Title: "star recovery of 64 MB with one straggling provider",
	}, func(_ string, speculate bool) string {
		if speculate {
			return "speculation"
		}
		return "no speculation"
	}, "star")
}

// AblationSpeculationLineTree measures straggler hedging for the line
// and tree mechanisms on a 64 MB state: with Options.Speculate the
// planner lifts the straggling provider out of the chain/tree and
// fetches its shards star-style from a backup replica after
// SpeculationDelay — the same shape the executor's failover ladder takes
// when a stage dies mid-collection.
func AblationSpeculationLineTree() (Figure, error) {
	return stragglerFigure(Figure{
		ID:    "ablation-speculation-linetree",
		Title: "line/tree recovery of 64 MB with one straggling provider",
	}, func(scheme string, speculate bool) string {
		if speculate {
			return scheme + ", speculation"
		}
		return scheme + ", no speculation"
	}, "line", "tree")
}

// AblationFlowPenalty re-runs the constrained 128 MB recovery with the
// star flow penalty switched off, isolating how much of Fig 8b's
// star-degradation the concurrent-inbound-connection model contributes.
func AblationFlowPenalty() (Figure, error) {
	sc := Constrained()
	fig := Figure{
		ID:     "ablation-flowpenalty",
		Title:  "constrained 128 MB star recovery vs flow-penalty coefficient",
		XLabel: "flow penalty coefficient",
		YLabel: "recovery time (s)",
	}
	s := Series{Label: "star"}
	for _, c := range []float64{0, 0.05, 0.10, 0.15, 0.25} {
		env, err := newPlanEnv(envConfig{
			seed: 42, totalBytes: 128 * MB, shards: 16, replicas: 2,
		})
		if err != nil {
			return Figure{}, err
		}
		spec := env.spec(sc)
		spec.FlowPenalty = c
		p := recovery.NewPlanner()
		p.Star(spec, recovery.DefaultOptions())
		res, err := sc.NewSim().Run(p.Tasks())
		if err != nil {
			return Figure{}, err
		}
		s.X = append(s.X, c)
		s.Y = append(s.Y, res.Makespan)
	}
	fig.Series = []Series{s}
	return fig, nil
}

// AblationMechanismDefaults compares the three mechanisms at their
// selection-heuristic defaults across both scenarios at 64 MB —
// validating that the §3.7 decision table picks the winner in each cell.
func AblationMechanismDefaults() (Figure, error) {
	fig := Figure{
		ID:     "ablation-selection",
		Title:  "64 MB recovery per mechanism in both environments",
		XLabel: "scenario (0 = unconstrained, 1 = constrained)",
		YLabel: "recovery time (s)",
	}
	for _, scheme := range []string{"star", "line", "tree"} {
		s := Series{Label: scheme}
		for i, sc := range []Scenario{Unconstrained(), Constrained()} {
			env, err := newPlanEnv(envConfig{
				seed: 42, totalBytes: 64 * MB, shards: 16, replicas: 2,
			})
			if err != nil {
				return Figure{}, err
			}
			y, err := recoveryTime(env, sc, scheme)
			if err != nil {
				return Figure{}, fmt.Errorf("ablation %s: %w", scheme, err)
			}
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, y)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
