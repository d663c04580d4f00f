package sr3

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
)

// TestFullLifecycleTour walks the complete product story in one test:
// a stateful streaming application runs with SR3 protection, overlay
// nodes AND the stream task fail mid-run, recovery + healing bring
// everything back, and the final answer is exactly correct.
func TestFullLifecycleTour(t *testing.T) {
	// 1. Deployment: 80-node overlay, SR3 managers everywhere.
	f, err := New(Config{Nodes: 80, Seed: 77, Now: func() int64 { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	backend := f.Backend(0, 8, 2) // mechanism 0: heuristic per state size

	// 2. A word-count topology with a stateful aggregator.
	const tuples = 5000
	topo := NewTopology("tour")
	emitted := 0
	if err := topo.AddSpout("words", SpoutFunc(func() (Tuple, bool) {
		if emitted >= tuples {
			return Tuple{}, false
		}
		emitted++
		return Tuple{Values: []any{fmt.Sprintf("w%d", emitted%25)}}, true
	})); err != nil {
		t.Fatal(err)
	}
	counter := &publicCounter{store: NewMapStore()}
	if err := topo.AddBolt("agg", counter, 1).Fields("words", 0).Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, RuntimeConfig{Backend: backend, SaveEveryTuples: 500})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	// 3. Mid-run disaster: snapshot, then kill both an overlay region and
	// the stream task.
	if err := rt.Save("agg", 0); err != nil {
		t.Fatal(err)
	}
	nodes := f.Nodes()
	for i := 0; i < 8; i++ {
		f.FailNode(nodes[i*9%len(nodes)])
	}
	f.MaintenanceRound()
	if err := rt.Kill("agg", 0); err != nil {
		t.Fatal(err)
	}
	if err := rt.RecoverTask("agg", 0); err != nil {
		t.Fatalf("task recovery through damaged overlay: %v", err)
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	// 4. Verify exact counts despite everything.
	total := int64(0)
	for i := 0; i < 25; i++ {
		v, ok := counter.store.Get(fmt.Sprintf("w%d", i))
		if !ok {
			t.Fatalf("w%d missing", i)
		}
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != tuples {
		t.Fatalf("counted %d tuples, want %d", total, tuples)
	}

	// 5. Standalone state protection + healing: the Table 2 path.
	knowledge, err := counter.store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Selection("tour-state", "latency-sensitive many-failures",
		int64(len(knowledge)), 100_000_000); err != nil {
		t.Fatal(err)
	}
	if err := f.Save("tour-state", knowledge); err != nil {
		t.Fatal(err)
	}
	owner, err := f.OwnerOf("tour-state")
	if err != nil {
		t.Fatal(err)
	}
	f.FailNode(owner)
	f.MaintenanceRound()
	report, err := f.Heal()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Recovered) != 1 || !bytes.Equal(report.Recovered[0].State, knowledge) {
		t.Fatal("healing did not restore the saved knowledge")
	}
}
