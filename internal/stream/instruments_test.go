package stream

import (
	"strings"
	"testing"

	"sr3/internal/metrics"
	"sr3/internal/obs"
)

// steadyTopo builds spout -> pass(shuffle) -> count(fields, stateful).
func steadyTopo(t testing.TB, tuples []Tuple) *Topology {
	topo := NewTopology("steady")
	if err := topo.AddSpout("src", newSliceSpout(tuples)); err != nil {
		t.Fatal(err)
	}
	pass := BoltFunc(func(tu Tuple, emit Emit) error {
		emit(Tuple{Values: tu.Values, Ts: tu.Ts})
		return nil
	})
	if err := topo.AddBolt("pass", pass, 2).Shuffle("src").Err(); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddBolt("count", newCountBolt(), 1).Fields("pass", 0).Err(); err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestRuntimeInstruments: the steady-state counters, gauges and
// histograms must account for every tuple across a full run including a
// save, a kill and a replayed recovery.
func TestRuntimeInstruments(t *testing.T) {
	tuples := make([]Tuple, 40)
	words := []string{"a", "b", "c", "d"}
	for i := range tuples {
		tuples[i] = Tuple{Values: []any{words[i%len(words)]}}
	}
	reg := metrics.NewRegistry()
	fr := obs.NewFlightRecorder(64)
	rt, err := NewRuntime(steadyTopo(t, tuples[:20]), Config{
		Backend: NewMemoryBackend(),
		Metrics: reg,
		Flight:  fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	rt.spoutWG.Wait() // finite spout: all 20 tuples routed after this
	rt.Drain()

	if got := reg.Counter("sr3_stream_spout_tuples_total").Value(); got != 20 {
		t.Fatalf("spout tuples = %d, want 20", got)
	}
	// Every spout tuple lands on pass, every pass emission on count.
	if got := reg.Counter("sr3_stream_tuples_in_total").Value(); got != 40 {
		t.Fatalf("tuples in = %d, want 40", got)
	}
	// pass emits 20 and countBolt emits a count tuple per input: 40.
	if got := reg.Counter("sr3_stream_tuples_out_total").Value(); got != 40 {
		t.Fatalf("tuples out = %d, want 40", got)
	}
	if got := reg.Counter("sr3_stream_acks_total").Value(); got != 40 {
		t.Fatalf("acks = %d, want 40", got)
	}
	if got := reg.Histogram("sr3_stream_proc_ns").Count(); got != 40 {
		t.Fatalf("proc histogram count = %d, want 40", got)
	}
	// Per-task families exist with the key baked into the name.
	if got := reg.Counter("sr3_stream_task_steady/pass/0_tuples_in_total").Value() +
		reg.Counter("sr3_stream_task_steady/pass/1_tuples_in_total").Value(); got != 20 {
		t.Fatalf("per-task pass tuples in = %d, want 20", got)
	}

	// Save samples the state-size gauge on some count task.
	if err := rt.SaveAll(); err != nil {
		t.Fatal(err)
	}
	if reg.Gauge("sr3_stream_task_steady/count/0_state_bytes").Value()+
		reg.Gauge("sr3_stream_task_steady/count/1_state_bytes").Value() <= 0 {
		t.Fatal("state-size gauges not sampled on save")
	}

	// Kill one count task, feed it more tuples, recover: the replay
	// counter must cover the logged tuples.
	if err := rt.Kill("count", 0); err != nil {
		t.Fatal(err)
	}
	if err := rt.InjectBatch("src", "pass", append([]Tuple(nil), tuples[20:]...), ClassIngest); err != nil {
		t.Fatal(err)
	}
	rt.Drain()
	if err := rt.RecoverTask("count", 0); err != nil {
		t.Fatal(err)
	}
	replayed := reg.Counter("sr3_stream_task_steady/count/0_replays_total").Value()
	if replayed <= 0 {
		t.Fatalf("replays = %d, want > 0", replayed)
	}
	if got := reg.Counter("sr3_stream_replays_total").Value(); got != replayed {
		t.Fatalf("runtime replay roll-up = %d, want %d", got, replayed)
	}

	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	// High-water gauges ratchet and never exceed capacity.
	hw := reg.Gauge("sr3_stream_task_steady/count/0_queue_high_water").Value()
	if hw < 0 || hw > 256 {
		t.Fatalf("high water = %d out of range", hw)
	}

	// Flight journal saw the lifecycle: start, kill, recover, stop.
	kinds := map[string]bool{}
	for _, ev := range fr.Events() {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{obs.FlightTopologyStart, obs.FlightTaskKill, obs.FlightTaskRecover, obs.FlightTopologyStop} {
		if !kinds[k] {
			t.Fatalf("flight journal missing %s: %+v", k, fr.Events())
		}
	}

	// The exposition renders the per-task families with sanitized names.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "sr3_stream_task_steady_count_0_replays_total") {
		t.Fatalf("sanitized per-task family missing:\n%s", b.String())
	}
}

// TestRuntimeDebugView: the /debug/sr3 snapshot reflects topology shape
// and progress.
func TestRuntimeDebugView(t *testing.T) {
	tuples := []Tuple{{Values: []any{"x"}}, {Values: []any{"y"}}}
	rt, err := NewRuntime(steadyTopo(t, tuples), Config{Backend: NewMemoryBackend()})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	rt.spoutWG.Wait()
	rt.Drain()
	d := rt.DebugView()
	if d.Name != "steady" || len(d.Spouts) != 1 || d.Spouts[0] != "src" {
		t.Fatalf("debug view head = %+v", d)
	}
	if len(d.Tasks) != 3 {
		t.Fatalf("tasks = %d, want 3", len(d.Tasks))
	}
	var handled int64
	stateful := 0
	for _, task := range d.Tasks {
		handled += task.Handled
		if task.Stateful {
			stateful++
		}
		if task.QueueCap != 256 {
			t.Fatalf("queue cap = %d, want 256", task.QueueCap)
		}
	}
	if handled != 4 || stateful != 1 {
		t.Fatalf("handled=%d stateful=%d, want 4/1", handled, stateful)
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
}

// noopSpout never produces: the benchmarks push into the plane directly.
type noopSpout struct{}

func (noopSpout) Next() (Tuple, bool) { return Tuple{}, false }

// benchPlane builds src → relay → sink (relay re-emits, sink drops) and
// returns a function that offers one tuple the way wire ingress does: a
// reused 32-tuple frame through InjectBatch every 32nd call. Between
// them the two tasks cover every step of the plane: pushN, drain,
// execute, emit, pushN.
func benchPlane(b *testing.B, reg *metrics.Registry) (rt *Runtime, offer func()) {
	topo := NewTopology("bench")
	if err := topo.AddSpout("src", noopSpout{}); err != nil {
		b.Fatal(err)
	}
	relay := BoltFunc(func(t Tuple, emit Emit) error { emit(t); return nil })
	drop := BoltFunc(func(Tuple, Emit) error { return nil })
	if err := topo.AddBolt("relay", relay, 1).Shuffle("src").Err(); err != nil {
		b.Fatal(err)
	}
	if err := topo.AddBolt("sink", drop, 1).Shuffle("relay").Err(); err != nil {
		b.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	rt.Start()
	frame := make([]Tuple, 0, 32)
	return rt, func() {
		frame = append(frame, Tuple{Values: benchValues})
		if len(frame) == cap(frame) {
			if err := rt.InjectBatch("src", "relay", frame, ClassIngest); err != nil {
				b.Fatal(err)
			}
			frame = frame[:0]
		}
	}
}

var benchValues = []any{"w"}

func runBenchPlane(b *testing.B, reg *metrics.Registry) {
	rt, offer := benchPlane(b, reg)
	// Warm up: queues, run buffers and outboxes reach their steady sizes.
	for i := 0; i < 20000; i++ {
		offer()
	}
	rt.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer()
	}
	rt.Drain()
	b.StopTimer()
	_ = rt.Wait()
}

// BenchmarkRuntimeDisabled measures one tuple through two task hops with
// metrics off — the acceptance bar is 0 allocs/op (TestPlaneZeroAlloc).
func BenchmarkRuntimeDisabled(b *testing.B) { runBenchPlane(b, nil) }

// BenchmarkRuntimeInstrumented is the same path with live instruments;
// the delta against Disabled is the per-tuple cost of observability.
func BenchmarkRuntimeInstrumented(b *testing.B) { runBenchPlane(b, metrics.NewRegistry()) }

// TestPlaneZeroAlloc is the allocation regression guard wired into
// `go test`: the steady-state plane — pushN → drain → execute → emit →
// pushN, instruments on or off — allocates nothing per tuple.
func TestPlaneZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("allocation guard runs the benchmark harness")
	}
	for name, bench := range map[string]func(*testing.B){
		"disabled": BenchmarkRuntimeDisabled, "instrumented": BenchmarkRuntimeInstrumented,
	} {
		if a := testing.Benchmark(bench).AllocsPerOp(); a != 0 {
			t.Errorf("%s plane = %d allocs/op, want 0", name, a)
		}
	}
}
