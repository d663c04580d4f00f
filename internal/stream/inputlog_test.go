package stream

import (
	"errors"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"sr3/internal/metrics"
	"sr3/internal/state"
)

// flakyBackend is a MemoryBackend whose Save fails while failing is set.
type flakyBackend struct {
	*MemoryBackend
	failing atomic.Bool
	calls   atomic.Int64
}

var errHolderDown = errors.New("holder down")

func (b *flakyBackend) Save(key string, snap []byte, v state.Version) error {
	b.calls.Add(1)
	if b.failing.Load() {
		return errHolderDown
	}
	return b.MemoryBackend.Save(key, snap, v)
}

// logRig is one stateful counter fed through InjectBatch — the daemon's
// ingress path — so a test decides exactly how many tuples have arrived.
type logRig struct {
	rt      *Runtime
	counter *countBolt
	next    int
}

func newLogRig(t *testing.T, cfg Config) *logRig {
	t.Helper()
	topo := NewTopology("il")
	if err := topo.AddSource("src"); err != nil {
		t.Fatal(err)
	}
	r := &logRig{counter: newCountBolt()}
	if err := topo.AddBolt("count", r.counter, 1).Global("src").Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.rt = rt
	rt.Start()
	t.Cleanup(func() { _ = rt.Wait() })
	return r
}

// feed injects n tuples over 8 keys, a run at a time, and waits for them.
func (r *logRig) feed(t *testing.T, n int) {
	t.Helper()
	run := make([]Tuple, 0, runCap)
	for n > 0 {
		run = run[:0]
		for len(run) < runCap && n > 0 {
			run = append(run, Tuple{Values: []any{"k" + strconv.Itoa(r.next%8)}})
			r.next++
			n--
		}
		if err := r.rt.InjectBatch("src", "count", run, ClassIngest); err != nil {
			t.Fatal(err)
		}
	}
	r.rt.Drain()
}

func (r *logRig) logged() int64 { return r.rt.Stats()[0].Logged }

// counted sums the counter's state: the tuples it reflects.
func (r *logRig) counted(t *testing.T) int64 {
	t.Helper()
	var sum int64
	for i := 0; i < 8; i++ {
		if v, ok := r.counter.store.Get("k" + strconv.Itoa(i)); ok {
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += n
		}
	}
	return sum
}

// TestInputLogKeptSinceLastSave: a default runtime recovers its tasks
// itself, so a live task's log holds every tuple since the last save, and
// Stats, DebugView and the gauge all say how many.
func TestInputLogKeptSinceLastSave(t *testing.T) {
	reg := metrics.NewRegistry()
	r := newLogRig(t, Config{Backend: NewMemoryBackend(), Metrics: reg})
	gauge := reg.Gauge("sr3_stream_input_log_tuples")
	for _, step := range []struct {
		feed int
		save bool
		want int64
	}{{feed: 37, want: 37}, {feed: 100, want: 137}, {save: true, want: 0}, {feed: 5, want: 5}} {
		r.feed(t, step.feed)
		if step.save {
			if err := r.rt.SaveAll(); err != nil {
				t.Fatal(err)
			}
		}
		if got := r.logged(); got != step.want {
			t.Fatalf("after %+v: Logged = %d, want %d", step, got, step.want)
		}
		if got := r.rt.DebugView().Tasks[0].Logged; got != step.want {
			t.Fatalf("after %+v: DebugView Logged = %d, want %d", step, got, step.want)
		}
		if got := gauge.Value(); got != step.want {
			t.Fatalf("after %+v: gauge = %d, want %d", step, got, step.want)
		}
	}
	// The log goes with the runtime: a stopped one owes no replay.
	if err := r.rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := gauge.Value(); got != 0 {
		t.Fatalf("gauge = %d after Wait, want 0", got)
	}
}

// TestInputLogUpstreamReplayOnlyWhileDead: with UpstreamReplay a live task
// logs nothing, a killed one logs what arrives, and Recover replays
// exactly that on top of the snapshot — the tuples the task took alive
// after its last save are the sender's to replay, not this runtime's.
func TestInputLogUpstreamReplayOnlyWhileDead(t *testing.T) {
	r := newLogRig(t, Config{Backend: NewMemoryBackend(), UpstreamReplay: true})
	r.feed(t, 50)
	if got := r.logged(); got != 0 {
		t.Fatalf("live task logged %d tuples", got)
	}
	if err := r.rt.SaveAll(); err != nil {
		t.Fatal(err)
	}
	r.feed(t, 20)
	if got := r.logged(); got != 0 {
		t.Fatalf("live task logged %d tuples after a save", got)
	}
	if err := r.rt.Kill("count", 0); err != nil {
		t.Fatal(err)
	}
	r.feed(t, 7)
	if got := r.logged(); got != 7 {
		t.Fatalf("dead task logged %d tuples, want 7", got)
	}
	before, _ := r.rt.Handled("count", 0)
	if err := r.rt.RecoverTask("count", 0); err != nil {
		t.Fatal(err)
	}
	after, _ := r.rt.Handled("count", 0)
	if after-before != 7 {
		t.Fatalf("recover replayed %d tuples, want 7", after-before)
	}
	if got := r.counted(t); got != 50+7 {
		t.Fatalf("state reflects %d tuples, want 57 (snapshot 50 + 7 logged while dead)", got)
	}
	// What was replayed is still unsaved: it stays until the next save.
	if got := r.logged(); got != 7 {
		t.Fatalf("Logged = %d after recover, want 7", got)
	}
	if err := r.rt.SaveAll(); err != nil {
		t.Fatal(err)
	}
	r.feed(t, 10)
	if got := r.logged(); got != 0 {
		t.Fatalf("Logged = %d after the next save, want 0", got)
	}
}

// TestInputLogRetentionGuard: with UpstreamReplay a stateful task between
// saves retains nothing per tuple. With the log kept, these 200 000
// tuples leave ≈ 425 000 heap objects behind (a values slice and a boxed
// string each).
func TestInputLogRetentionGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory shows up in MemStats")
	}
	r := newLogRig(t, Config{Backend: NewMemoryBackend(), UpstreamReplay: true, SaveEveryTuples: 1 << 20})
	heapObjects := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapObjects)
	}
	r.feed(t, 10_000)
	warm := heapObjects()
	r.feed(t, 200_000)
	if grew := heapObjects() - warm; grew > 5_000 {
		t.Fatalf("200000 tuples left %d more heap objects than the warm-up reading", grew)
	}
	if got := r.logged(); got != 0 {
		t.Fatalf("Logged = %d", got)
	}
}

// TestInputLogFailedSavesStayEmpty: a save that keeps failing truncates
// nothing, so with UpstreamReplay there must be nothing to truncate — the
// log of a daemon with an unreachable holder does not grow.
func TestInputLogFailedSavesStayEmpty(t *testing.T) {
	backend := &flakyBackend{MemoryBackend: NewMemoryBackend()}
	backend.failing.Store(true)
	r := newLogRig(t, Config{Backend: backend, UpstreamReplay: true, SaveEveryTuples: 100})
	r.feed(t, 100_000)
	if got := r.logged(); got != 0 {
		t.Fatalf("Logged = %d after 100000 tuples of failing saves", got)
	}
	if got := backend.calls.Load(); got == 0 || got > 100_000/100+10 {
		t.Fatalf("%d save attempts for 100000 tuples at SaveEveryTuples 100", got)
	}
}

// TestFailedSaveBacksOff: a failed periodic save is retried at a distance
// in tuples that doubles from 1 to SaveEveryTuples (a retry on every
// following tuple would be 91 attempts for these 100), and the first
// success truncates the log and restores the period.
func TestFailedSaveBacksOff(t *testing.T) {
	const saveEvery = 10
	backend := &flakyBackend{MemoryBackend: NewMemoryBackend()}
	backend.failing.Store(true)
	r := newLogRig(t, Config{Backend: backend, SaveEveryTuples: saveEvery})
	r.feed(t, 100)
	// Attempts at 10, 11, 13, 17, 25, 35, …, 95 tuples.
	failed := backend.calls.Load()
	if failed != 12 {
		t.Fatalf("%d save attempts for 100 tuples with a failing backend, want 12 (≤ 15)", failed)
	}
	if got := r.logged(); got != 100 {
		t.Fatalf("Logged = %d with no save published, want 100", got)
	}

	backend.failing.Store(false)
	r.feed(t, saveEvery) // the retry is never further than SaveEveryTuples away
	if got := backend.calls.Load() - failed; got != 1 {
		t.Fatalf("%d save attempts in the %d tuples after the backend came back, want 1", got, saveEvery)
	}
	rest := r.logged()
	if rest >= saveEvery {
		t.Fatalf("Logged = %d after a successful save, want < %d", rest, saveEvery)
	}
	snap, err := backend.Recover(TaskKey("il", "count", 0))
	if err != nil {
		t.Fatal(err)
	}
	saved := state.NewMapStore()
	if err := saved.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if saved.Len() != 8 {
		t.Fatalf("saved snapshot has %d keys, want 8", saved.Len())
	}
	r.feed(t, 3*saveEvery)
	if got := backend.calls.Load() - failed - 1; got != 3 {
		t.Fatalf("%d saves in the next %d tuples, want 3: the period is not restored", got, 3*saveEvery)
	}
	if got := r.logged(); got != rest {
		t.Fatalf("Logged = %d, want %d", got, rest)
	}
}
