package stream

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sr3/internal/obs"
	"sr3/internal/state"
)

// sliceSpout emits a fixed tuple list.
type sliceSpout struct {
	mu     sync.Mutex
	tuples []Tuple
	pos    int
}

func newSliceSpout(tuples []Tuple) *sliceSpout { return &sliceSpout{tuples: tuples} }

func (s *sliceSpout) Next() (Tuple, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pos >= len(s.tuples) {
		return Tuple{}, false
	}
	t := s.tuples[s.pos]
	s.pos++
	return t, true
}

// chanSpout feeds tuples pushed from the test; Close ends the stream.
type chanSpout struct {
	ch chan Tuple
}

func newChanSpout() *chanSpout { return &chanSpout{ch: make(chan Tuple, 1024)} }

func (s *chanSpout) Next() (Tuple, bool) {
	t, ok := <-s.ch
	return t, ok
}

func (s *chanSpout) push(tuples ...Tuple) {
	for _, t := range tuples {
		s.ch <- t
	}
}

func (s *chanSpout) close() { close(s.ch) }

// settle lets the spout pump route pushed tuples, then drains in-flight
// work. The sleep covers the push->pump handoff, which the pending
// counter cannot see.
func settle(rt *Runtime) {
	time.Sleep(20 * time.Millisecond)
	rt.Drain()
}

// sink collects outputs thread-safely.
type sink struct {
	mu  sync.Mutex
	got []Tuple
}

func (s *sink) Execute(t Tuple, _ Emit) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, t)
	return nil
}

func (s *sink) tuples() []Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Tuple(nil), s.got...)
}

// countBolt is a stateful word counter over a MapStore.
type countBolt struct {
	store *state.MapStore
}

func newCountBolt() *countBolt { return &countBolt{store: state.NewMapStore()} }

func (c *countBolt) Execute(t Tuple, emit Emit) error {
	word := t.StringAt(0)
	n := int64(0)
	if v, ok := c.store.Get(word); ok {
		parsed, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return err
		}
		n = parsed
	}
	n++
	c.store.Put(word, []byte(strconv.FormatInt(n, 10)))
	emit(Tuple{Values: []any{word, n}})
	return nil
}

func (c *countBolt) Store() StateStore { return c.store }

func wordTuples(words ...string) []Tuple {
	out := make([]Tuple, len(words))
	for i, w := range words {
		out[i] = Tuple{Values: []any{w}, Ts: int64(i)}
	}
	return out
}

func TestTopologyValidation(t *testing.T) {
	topo := NewTopology("t")
	if err := topo.AddSpout("s", newSliceSpout(nil)); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddSpout("s", newSliceSpout(nil)); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("dup spout: %v", err)
	}
	if err := topo.AddBolt("b", &sink{}, 0).Err(); !errors.Is(err, ErrBadParallel) {
		t.Fatalf("bad parallel: %v", err)
	}
	if err := topo.AddBolt("c", &sink{}, 1).Shuffle("nope").Err(); !errors.Is(err, ErrUnknownSource) {
		t.Fatalf("unknown source: %v", err)
	}
	empty := NewTopology("empty")
	if _, err := NewRuntime(empty, Config{}); !errors.Is(err, ErrEmptyTopology) {
		t.Fatalf("empty: %v", err)
	}
}

func TestWordCountEndToEnd(t *testing.T) {
	words := []string{"a", "b", "a", "c", "a", "b"}
	topo := NewTopology("wc")
	if err := topo.AddSpout("words", newSliceSpout(wordTuples(words...))); err != nil {
		t.Fatal(err)
	}
	counter := newCountBolt()
	if err := topo.AddBolt("count", counter, 1).Fields("words", 0).Err(); err != nil {
		t.Fatal(err)
	}
	out := &sink{}
	if err := topo.AddBolt("sink", out, 1).Global("count").Err(); err != nil {
		t.Fatal(err)
	}

	rt, err := NewRuntime(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	// Final counts in the store must be exact.
	want := map[string]int64{"a": 3, "b": 2, "c": 1}
	for w, n := range want {
		v, ok := counter.store.Get(w)
		if !ok || string(v) != strconv.FormatInt(n, 10) {
			t.Fatalf("count[%s] = %s, want %d", w, v, n)
		}
	}
	if len(out.tuples()) != len(words) {
		t.Fatalf("sink saw %d tuples, want %d", len(out.tuples()), len(words))
	}
}

func TestFieldsGroupingRoutesConsistently(t *testing.T) {
	// With parallelism 4, all tuples of one key must land on one task.
	var tuples []Tuple
	for i := 0; i < 200; i++ {
		tuples = append(tuples, Tuple{Values: []any{fmt.Sprintf("key-%d", i%10)}})
	}
	topo := NewTopology("fg")
	_ = topo.AddSpout("src", newSliceSpout(tuples))

	// Keys must each map to exactly one of the 4 tasks, and the tasks
	// should share the load.
	var mu sync.Mutex
	seen := make(map[string]map[int]bool)
	counts := make([]int, 4)
	rec := BoltFunc(func(tp Tuple, _ Emit) error {
		mu.Lock()
		defer mu.Unlock()
		k := tp.StringAt(0)
		if seen[k] == nil {
			seen[k] = make(map[int]bool)
		}
		// task index not directly exposed; approximate via hashField
		idx := hashField(tp.Values[0], 4)
		seen[k][idx] = true
		counts[idx]++
		return nil
	})
	if err := topo.AddBolt("b", rec, 4).Fields("src", 0).Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for k, tasks := range seen {
		if len(tasks) != 1 {
			t.Fatalf("key %s hit %d tasks", k, len(tasks))
		}
	}
	busy := 0
	for _, c := range counts {
		if c > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 4 tasks used", busy)
	}
}

func TestShuffleGroupingBalances(t *testing.T) {
	var tuples []Tuple
	for i := 0; i < 400; i++ {
		tuples = append(tuples, Tuple{Values: []any{i}})
	}
	topo := NewTopology("sh")
	_ = topo.AddSpout("src", newSliceSpout(tuples))
	if err := topo.AddBolt("b", BoltFunc(func(Tuple, Emit) error { return nil }), 4).
		Shuffle("src").Err(); err != nil {
		t.Fatal(err)
	}
	rt, _ := NewRuntime(topo, Config{})
	rt.Start()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		n, err := rt.Handled("b", i)
		if err != nil {
			t.Fatal(err)
		}
		if n != 100 {
			t.Fatalf("task %d handled %d, want 100 (round robin)", i, n)
		}
	}
}

func TestAllGroupingBroadcasts(t *testing.T) {
	topo := NewTopology("all")
	_ = topo.AddSpout("src", newSliceSpout(wordTuples("x", "y")))
	if err := topo.AddBolt("b", BoltFunc(func(Tuple, Emit) error { return nil }), 3).
		All("src").Err(); err != nil {
		t.Fatal(err)
	}
	rt, _ := NewRuntime(topo, Config{})
	rt.Start()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if n, _ := rt.Handled("b", i); n != 2 {
			t.Fatalf("task %d handled %d, want 2", i, n)
		}
	}
}

func TestMultiStageTopology(t *testing.T) {
	// split -> count: the classic wordcount shape with a splitter bolt.
	lines := []Tuple{
		{Values: []any{"the quick brown fox"}},
		{Values: []any{"the lazy dog"}},
		{Values: []any{"the fox"}},
	}
	topo := NewTopology("wc2")
	_ = topo.AddSpout("lines", newSliceSpout(lines))
	split := BoltFunc(func(tp Tuple, emit Emit) error {
		for _, w := range strings.Fields(tp.StringAt(0)) {
			emit(Tuple{Values: []any{w}})
		}
		return nil
	})
	if err := topo.AddBolt("split", split, 2).Shuffle("lines").Err(); err != nil {
		t.Fatal(err)
	}
	counter := newCountBolt()
	if err := topo.AddBolt("count", counter, 1).Fields("split", 0).Err(); err != nil {
		t.Fatal(err)
	}
	rt, _ := NewRuntime(topo, Config{})
	rt.Start()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	v, ok := counter.store.Get("the")
	if !ok || string(v) != "3" {
		t.Fatalf("count[the] = %s", v)
	}
	if rt.ExecuteErrors() != 0 {
		t.Fatalf("%d execute errors", rt.ExecuteErrors())
	}
}

// handOver is the trace context a recovery hands its backend.
type handOver struct {
	tr     *obs.Tracer
	parent obs.SpanContext
}

// handOverBackend is a MemoryBackend recording what Recover was handed.
type handOverBackend struct {
	*MemoryBackend
	got handOver
}

func (b *handOverBackend) Recover(key string, tr *obs.Tracer, parent obs.SpanContext) (state.View, error) {
	b.got = handOver{tr, parent}
	return b.MemoryBackend.Recover(key, tr, parent)
}

func TestKillRecoverWithMemoryBackend(t *testing.T) {
	// Process half the stream, save, keep processing, kill, recover:
	// final counts must equal the failure-free run.
	words := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		words = append(words, fmt.Sprintf("w%d", i%7))
	}
	topo := NewTopology("kr")
	spout := newChanSpout()
	_ = topo.AddSpout("words", spout)
	counter := newCountBolt()
	if err := topo.AddBolt("count", counter, 1).Fields("words", 0).Err(); err != nil {
		t.Fatal(err)
	}
	backend := &handOverBackend{MemoryBackend: NewMemoryBackend()}
	rt, err := NewRuntime(topo, Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	spout.push(wordTuples(words[:150]...)...)
	settle(rt)
	if err := rt.SaveAll(); err != nil {
		t.Fatal(err)
	}

	// Second half arrives, then the task dies mid-stream.
	spout.push(wordTuples(words[150:]...)...)
	spout.close()
	settle(rt)
	if err := rt.Kill("count", 0); err != nil {
		t.Fatal(err)
	}
	// State is "lost": recovery must rebuild it from snapshot + log.
	if err := counter.store.Restore(mustSnapshot(t, state.NewMapStore())); err != nil {
		t.Fatal(err)
	}
	if err := rt.RecoverTask("count", 0); err != nil {
		t.Fatal(err)
	}
	if backend.got != (handOver{}) {
		t.Fatalf("RecoverTask handed the backend %+v, want nil and the zero context", backend.got)
	}
	// RecoverTaskByKey hands on the caller's tracer and parent only when
	// the tracer is enabled and the parent valid.
	tr := obs.New(obs.NewCollector())
	parent := tr.NewRootContext()
	for _, c := range []struct{ call, want handOver }{
		{handOver{tr, parent}, handOver{tr, parent}},
		{handOver{tr: tr}, handOver{}},
		{handOver{parent: parent}, handOver{}},
	} {
		if err := rt.Kill("count", 0); err != nil {
			t.Fatal(err)
		}
		if err := rt.RecoverTaskByKey(TaskKey("kr", "count", 0), c.call.tr, c.call.parent); err != nil {
			t.Fatal(err)
		}
		if backend.got != c.want {
			t.Fatalf("RecoverTaskByKey(%+v) handed the backend %+v, want %+v", c.call, backend.got, c.want)
		}
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 7; i++ {
		w := fmt.Sprintf("w%d", i)
		want := 300 / 7
		if i < 300%7 {
			want++
		}
		v, ok := counter.store.Get(w)
		if !ok {
			t.Fatalf("count[%s] missing after recovery", w)
		}
		got, _ := strconv.ParseInt(string(v), 10, 64)
		if got != int64(want) {
			t.Fatalf("count[%s] = %d, want %d", w, got, want)
		}
	}
}

func mustSnapshot(t *testing.T, s *state.MapStore) []byte {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestKillStopsProcessing(t *testing.T) {
	topo := NewTopology("ks")
	spout := newChanSpout()
	_ = topo.AddSpout("w", spout)
	counter := newCountBolt()
	if err := topo.AddBolt("count", counter, 1).Fields("w", 0).Err(); err != nil {
		t.Fatal(err)
	}
	rt, _ := NewRuntime(topo, Config{Backend: NewMemoryBackend()})
	rt.Start()
	spout.push(wordTuples("a", "b")...)
	settle(rt)
	_ = rt.SaveAll()
	if err := rt.Kill("count", 0); err != nil {
		t.Fatal(err)
	}
	before, _ := rt.Handled("count", 0)

	spout.push(wordTuples("c", "d", "e")...)
	spout.close()
	settle(rt)
	after, _ := rt.Handled("count", 0)
	if after != before {
		t.Fatalf("dead task processed tuples: %d -> %d", before, after)
	}
	// Double kill is rejected at recover time only; kill is idempotent.
	if err := rt.RecoverTask("count", 0); err != nil {
		t.Fatal(err)
	}
	if err := rt.RecoverTask("count", 0); !errors.Is(err, ErrTaskAlive) {
		t.Fatalf("recover alive: %v", err)
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	final, _ := rt.Handled("count", 0)
	if final != 5 {
		t.Fatalf("handled %d, want 5 after replay", final)
	}
}

func TestControlErrors(t *testing.T) {
	topo := NewTopology("ce")
	_ = topo.AddSpout("w", newSliceSpout(nil))
	if err := topo.AddBolt("b", BoltFunc(func(Tuple, Emit) error { return nil }), 1).
		Shuffle("w").Err(); err != nil {
		t.Fatal(err)
	}
	rt, _ := NewRuntime(topo, Config{})
	rt.Start()
	if err := rt.Save("nope", 0); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown task: %v", err)
	}
	if err := rt.Save("b", 9); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("bad index: %v", err)
	}
	if err := rt.Save("b", 0); !errors.Is(err, ErrNotStateful) {
		t.Fatalf("stateless save: %v", err)
	}
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Wait(); !errors.Is(err, ErrAlreadyWaited) {
		t.Fatalf("double wait: %v", err)
	}
}

func TestAutoSaveEveryTuples(t *testing.T) {
	backend := NewMemoryBackend()
	topo := NewTopology("as")
	_ = topo.AddSpout("w", newSliceSpout(wordTuples("a", "b", "c", "d", "e", "f")))
	counter := newCountBolt()
	if err := topo.AddBolt("count", counter, 1).Fields("w", 0).Err(); err != nil {
		t.Fatal(err)
	}
	rt, _ := NewRuntime(topo, Config{Backend: backend, SaveEveryTuples: 2})
	rt.Start()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	key := TaskKey("as", "count", 0)
	snap, err := backend.Recover(key, nil, obs.SpanContext{})
	if err != nil {
		t.Fatalf("no auto-saved snapshot: %v", err)
	}
	st := state.NewMapStore()
	if err := st.RestoreView(snap); err != nil {
		t.Fatal(err)
	}
	if st.Len() < 4 {
		t.Fatalf("auto-saved snapshot too old: %d keys", st.Len())
	}
}

func TestStatsSnapshot(t *testing.T) {
	topo := NewTopology("stats")
	_ = topo.AddSpout("src", newSliceSpout(wordTuples("a", "b", "c", "d")))
	counter := newCountBolt()
	if err := topo.AddBolt("count", counter, 2).Fields("src", 0).Err(); err != nil {
		t.Fatal(err)
	}
	pass := BoltFunc(func(tp Tuple, _ Emit) error { return nil })
	if err := topo.AddBolt("sink", pass, 1).Global("count").Err(); err != nil {
		t.Fatal(err)
	}
	rt, _ := NewRuntime(topo, Config{Backend: NewMemoryBackend()})
	rt.Start()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	stats := rt.Stats()
	if len(stats) != 3 {
		t.Fatalf("got %d task stats", len(stats))
	}
	var counted, sunk int64
	for _, s := range stats {
		switch s.Bolt {
		case "count":
			counted += s.Handled
			if !s.Stateful {
				t.Fatal("count should be stateful")
			}
		case "sink":
			sunk += s.Handled
			if s.Stateful {
				t.Fatal("sink should be stateless")
			}
		}
	}
	if counted != 4 || sunk != 4 {
		t.Fatalf("counted=%d sunk=%d, want 4/4", counted, sunk)
	}
	if rt.Pending() != 0 {
		t.Fatalf("pending = %d after drain", rt.Pending())
	}
}
