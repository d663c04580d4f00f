package recovery

import "testing"

// TestSelectThresholdBoundaries pins the small/large crossover exactly:
// one byte below the threshold is still "small" (star), the threshold
// itself and anything above is "large" (line/tree per environment).
func TestSelectThresholdBoundaries(t *testing.T) {
	tests := []struct {
		name string
		req  Requirements
		use  bool
		mech Mechanism
	}{
		{"zero state", Requirements{}, true, Star},
		{"one byte", Requirements{StateBytes: 1}, true, Star},
		{"threshold-1", Requirements{StateBytes: SmallStateThreshold - 1}, true, Star},
		{"threshold exact", Requirements{StateBytes: SmallStateThreshold}, true, Line},
		{"threshold+1", Requirements{StateBytes: SmallStateThreshold + 1}, true, Line},
		{"threshold, constrained", Requirements{StateBytes: SmallStateThreshold, BandwidthConstrained: true}, true, Line},
		{"threshold, constrained+sensitive", Requirements{StateBytes: SmallStateThreshold, BandwidthConstrained: true, LatencySensitive: true}, true, Tree},
		// LatencySensitive alone does not flip large state off line: the
		// tree branch requires the bandwidth constraint too (Fig 7).
		{"large, sensitive, unconstrained", Requirements{StateBytes: 128 << 20, LatencySensitive: true}, true, Line},
		// Stateless wins over every other flag.
		{"stateless trumps all", Requirements{Stateless: true, StateBytes: 1 << 30, BandwidthConstrained: true, LatencySensitive: true, ExpectManyFailures: true}, false, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := Select(tt.req)
			if d.UseSR3 != tt.use {
				t.Fatalf("UseSR3 = %v, want %v (%s)", d.UseSR3, tt.use, d.Reason)
			}
			if tt.use && d.Mechanism != tt.mech {
				t.Fatalf("mechanism = %s, want %s (%s)", d.Mechanism, tt.mech, d.Reason)
			}
			if d.Reason == "" {
				t.Fatal("empty Reason")
			}
		})
	}
}

// TestPathLengthForClamps pins the line path-length scaling rule at its
// clamp boundaries: floor 4, ~8 MB of merge work per stage in between,
// cap 64 (the Fig 9b sweep range).
func TestPathLengthForClamps(t *testing.T) {
	const perStage = 8 << 20
	tests := []struct {
		name  string
		bytes int64
		want  int
	}{
		{"zero", 0, 4},
		{"below floor", 3 * perStage, 4},
		{"floor exact", 4 * perStage, 4},
		{"one above floor", 5 * perStage, 5},
		{"mid range", 32 * perStage, 32},
		{"cap exact", 64 * perStage, 64},
		{"just below cap", 64*perStage - 1, 63},
		{"above cap", 1 << 40, 64},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := pathLengthFor(tt.bytes); got != tt.want {
				t.Fatalf("pathLengthFor(%d) = %d, want %d", tt.bytes, got, tt.want)
			}
		})
	}
}

// TestSelectKnobAdjustments pins the option tweaks each branch applies on
// top of the defaults.
func TestSelectKnobAdjustments(t *testing.T) {
	def := DefaultOptions()

	// Small state + many failures widens the star fan-out.
	small := Select(Requirements{StateBytes: 1 << 20})
	if small.Options.StarFanoutBit != def.StarFanoutBit {
		t.Fatalf("small star fan-out bit %d, want default %d", small.Options.StarFanoutBit, def.StarFanoutBit)
	}
	many := Select(Requirements{StateBytes: 1 << 20, ExpectManyFailures: true})
	if many.Options.StarFanoutBit <= small.Options.StarFanoutBit {
		t.Fatalf("many-failures star fan-out bit %d, want > %d", many.Options.StarFanoutBit, small.Options.StarFanoutBit)
	}

	// The tree branch bounds depth below the default and raises fan-out.
	tree := Select(Requirements{StateBytes: 128 << 20, BandwidthConstrained: true, LatencySensitive: true})
	if tree.Options.TreeBranchDepth >= def.TreeBranchDepth {
		t.Fatalf("tree depth %d, want < default %d", tree.Options.TreeBranchDepth, def.TreeBranchDepth)
	}
	if tree.Options.TreeFanoutBit <= def.TreeFanoutBit {
		t.Fatalf("tree fan-out bit %d, want > default %d", tree.Options.TreeFanoutBit, def.TreeFanoutBit)
	}

}
