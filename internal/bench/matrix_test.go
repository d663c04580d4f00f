package bench

import "testing"

// TestMatrixCrashUnderIngestExactlyOnce is the acceptance gate for the
// ingest family: a crash while the spout keeps pushing must lose nothing
// — the dedupe checker sees every sequence number exactly once and the
// recovered operator state is exact.
func TestMatrixCrashUnderIngestExactlyOnce(t *testing.T) {
	for _, mech := range []string{MechSR3Star, MechCheckpoint} {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			cell, err := RunMatrixCell(MatrixCellSpec{
				Scenario: ScenarioCrashIngest, Mechanism: mech, Load: "sustained-2k",
			}, 7001)
			if err != nil {
				t.Fatalf("cell: %v", err)
			}
			if cell.Missing != 0 {
				t.Fatalf("missing = %d, want 0 (dup=%d)", cell.Missing, cell.Duplicates)
			}
			if !cell.StateExact {
				t.Fatal("recovered operator state not exact")
			}
			if !cell.ExactlyOnce {
				t.Fatal("exactly-once verdict false")
			}
			if cell.RecoverMs <= 0 {
				t.Fatalf("recover_ms = %v, want > 0", cell.RecoverMs)
			}
		})
	}
}

// TestMatrixSlowNodeNoSpuriousKill is the gray-failure acceptance gate:
// the slow-node cell must take the degraded path (demote + reroute) and
// never kill the slow-but-alive holder.
func TestMatrixSlowNodeNoSpuriousKill(t *testing.T) {
	cell, err := RunMatrixCell(MatrixCellSpec{
		Scenario: ScenarioSlowNode, Mechanism: MechSR3Star, Load: "burst",
	}, 7101)
	if err != nil {
		t.Fatalf("cell: %v", err)
	}
	if cell.SpuriousKill {
		t.Fatal("slow-but-alive holder was killed")
	}
	if !cell.DegradedPath {
		t.Fatal("degraded path not taken (no gray.degraded for the holder)")
	}
	if !cell.ExactlyOnce {
		t.Fatalf("exactly-once verdict false (missing=%d state_exact=%v)",
			cell.Missing, cell.StateExact)
	}
	if cell.DetectMs <= 0 || cell.RecoverMs <= cell.DetectMs {
		t.Fatalf("latencies inconsistent: detect=%vms recover=%vms", cell.DetectMs, cell.RecoverMs)
	}
}

// TestMatrixPartitionDuringRecovery: the scheduled partition fires on the
// first collect message and heals; failover retries must complete the
// recovery anyway.
func TestMatrixPartitionDuringRecovery(t *testing.T) {
	cell, err := RunMatrixCell(MatrixCellSpec{
		Scenario: ScenarioPartition, Mechanism: MechSR3Tree, Load: "burst",
	}, 7201)
	if err != nil {
		t.Fatalf("cell: %v", err)
	}
	if !cell.ExactlyOnce {
		t.Fatalf("exactly-once verdict false (missing=%d)", cell.Missing)
	}
}
