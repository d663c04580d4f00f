package sr3

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sr3/internal/obs"
	"sr3/internal/stream"
)

func newFramework(t *testing.T, nodes int, seed int64) *Framework {
	t.Helper()
	f, err := New(Config{Nodes: nodes, Seed: seed, Now: func() int64 { return 42 }})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func randomState(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestSaveRecoverRoundTrip(t *testing.T) {
	f := newFramework(t, 40, 1)
	st := randomState(50_000, 1)
	if err := f.Save("app", st); err != nil {
		t.Fatal(err)
	}
	owner, err := f.OwnerOf("app")
	if err != nil {
		t.Fatal(err)
	}
	f.FailNode(owner)
	f.MaintenanceRound()
	rep, err := f.Recover("app")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.State, st) {
		t.Fatal("recovered state differs")
	}
	if rep.Replacement == owner {
		t.Fatal("replacement is the failed owner")
	}
}

func TestDefinesPinMechanism(t *testing.T) {
	tests := []struct {
		name   string
		define func(f *Framework) error
		want   Mechanism
	}{
		{"star", func(f *Framework) error { return f.StarDefine("app", 2) }, Star},
		{"line", func(f *Framework) error { return f.LineDefine("app", 8) }, Line},
		{"tree", func(f *Framework) error { return f.TreeDefine("app", 2, 6) }, Tree},
	}
	for i, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			f := newFramework(t, 40, int64(10+i))
			if err := tt.define(f); err != nil {
				t.Fatal(err)
			}
			st := randomState(20_000, int64(i))
			if err := f.Save("app", st); err != nil {
				t.Fatal(err)
			}
			owner, _ := f.OwnerOf("app")
			f.FailNode(owner)
			rep, err := f.Recover("app")
			if err != nil {
				t.Fatal(err)
			}
			if rep.Mechanism != tt.want {
				t.Fatalf("mechanism %s, want %s", rep.Mechanism, tt.want)
			}
			if !bytes.Equal(rep.State, st) {
				t.Fatal("state differs")
			}
		})
	}
}

func TestDefineValidation(t *testing.T) {
	f := newFramework(t, 10, 2)
	if err := f.StarDefine("a", -1); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("star: %v", err)
	}
	if err := f.LineDefine("a", -1); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("line: %v", err)
	}
	if err := f.TreeDefine("a", -1, 2); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("tree: %v", err)
	}
	if err := f.SetSharding("a", 0, 2); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("sharding: %v", err)
	}
}

func TestSelectionRegistersMechanism(t *testing.T) {
	f := newFramework(t, 40, 3)
	mech, err := f.Selection("app", "latency-sensitive", 128<<20, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if mech != Tree {
		t.Fatalf("selection = %s, want tree (large, constrained, sensitive)", mech)
	}
	mech, err = f.Selection("app2", "", 1<<20, 10_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if mech != Star {
		t.Fatalf("selection = %s, want star (small state)", mech)
	}
	if _, err := f.Selection("app3", "stateless", 0, 0); err == nil {
		t.Fatal("stateless should not use SR3")
	}
}

func TestStateSplit(t *testing.T) {
	f := newFramework(t, 20, 4)
	reps, err := f.StateSplit(randomState(1000, 5), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 12 {
		t.Fatalf("got %d replicas, want 12", len(reps))
	}
	if _, err := f.StateSplit(nil, 0, 1); err == nil {
		t.Fatal("bad shard count accepted")
	}
}

func TestRecoverUnknownApp(t *testing.T) {
	f := newFramework(t, 20, 5)
	if _, err := f.Recover("ghost"); err == nil {
		t.Fatal("recover of unknown app should fail")
	}
	if _, err := f.OwnerOf("ghost"); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("owner: %v", err)
	}
}

func TestConcurrentAppsSurviveMultipleNodeFailures(t *testing.T) {
	f := newFramework(t, 80, 6)
	states := make(map[string][]byte)
	for i := 0; i < 6; i++ {
		app := fmt.Sprintf("app-%d", i)
		states[app] = randomState(15_000+i*777, int64(i))
		if err := f.SetSharding(app, 6, 3); err != nil {
			t.Fatal(err)
		}
		if err := f.Save(app, states[app]); err != nil {
			t.Fatal(err)
		}
	}
	// Fail all owners plus a few bystanders simultaneously.
	for app := range states {
		owner, err := f.OwnerOf(app)
		if err != nil {
			t.Fatal(err)
		}
		f.FailNode(owner)
	}
	nodes := f.Nodes()
	for i := 0; i < 5; i++ {
		f.FailNode(nodes[i*13%len(nodes)])
	}
	f.MaintenanceRound()

	for app, want := range states {
		rep, err := f.Recover(app)
		if err != nil {
			t.Fatalf("recover %s: %v", app, err)
		}
		if !bytes.Equal(rep.State, want) {
			t.Fatalf("app %s state differs", app)
		}
	}
}

func TestFrameworkStreamIntegration(t *testing.T) {
	// The re-exported runtime + SR3 backend, end to end: wordcount with a
	// task kill in the middle.
	f := newFramework(t, 40, 7)
	backend := f.Backend(Tree, 6, 2)

	topo := NewTopology("pub")
	words := []string{"x", "y", "z", "x", "y", "x"}
	i := 0
	err := topo.AddSpout("src", SpoutFunc(func() (Tuple, bool) {
		if i >= len(words) {
			return Tuple{}, false
		}
		w := words[i]
		i++
		return Tuple{Values: []any{w}}, true
	}))
	if err != nil {
		t.Fatal(err)
	}
	store := NewMapStore()
	counterBolt := &publicCounter{store: store}
	if err := topo.AddBolt("count", counterBolt, 1).Fields("src", 0).Err(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(topo, RuntimeConfig{Backend: backend, SaveEveryTuples: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	if v, ok := store.Get("x"); !ok || string(v) != "3" {
		t.Fatalf("count[x] = %s", v)
	}
	// The backend must hold a recoverable snapshot saved via SR3.
	snap, err := backend.Recover(stream.TaskKey("pub", "count", 0), nil, obs.SpanContext{})
	if err != nil {
		t.Fatalf("backend recover: %v", err)
	}
	check := NewMapStore()
	if err := check.RestoreView(snap); err != nil {
		t.Fatal(err)
	}
	if v, ok := check.Get("x"); !ok || string(v) == "0" {
		t.Fatalf("snapshot count[x] = %s", v)
	}
}

// publicCounter is a StatefulBolt built purely from the public API.
type publicCounter struct {
	store *MapStore
}

func (c *publicCounter) Execute(t Tuple, emit Emit) error {
	w := t.StringAt(0)
	n := 0
	if v, ok := c.store.Get(w); ok {
		_, err := fmt.Sscanf(string(v), "%d", &n)
		if err != nil {
			return err
		}
	}
	n++
	c.store.Put(w, []byte(fmt.Sprintf("%d", n)))
	return nil
}

func (c *publicCounter) Store() StateStore { return c.store }

var _ StatefulBolt = (*publicCounter)(nil)
