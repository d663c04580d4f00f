package cluster

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

const specDoc = `
topology: wc
save_every: 100
shards: 3
replicas: 2
components:
  - id: source
    kind: spout.seq
    node: node1
    count: 500
    keys: 8
  - id: count
    kind: bolt.counter
    node: node2
    parallel: 2
    inputs:
      - from: source
        grouping: fields
        field: 0
  - id: sink
    kind: bolt.sink
    node: node3
    inputs:
      - from: count
        grouping: global
`

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec([]byte(specDoc))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if s.Name != "wc" || s.SaveEvery != 100 || s.Shards != 3 || s.Replicas != 2 {
		t.Fatalf("header = %+v", s)
	}
	// Unset knobs take defaults.
	if s.ChannelDepth != 1024 {
		t.Fatalf("defaults: depth %d", s.ChannelDepth)
	}
	if len(s.Components) != 3 {
		t.Fatalf("components = %d", len(s.Components))
	}
	src := s.Component("source")
	if src == nil || src.Kind != "spout.seq" || src.Params["count"] != 500 || src.Params["keys"] != 8 {
		t.Fatalf("source = %+v", src)
	}
	cnt := s.Component("count")
	if cnt == nil || cnt.Parallel != 2 || len(cnt.Inputs) != 1 {
		t.Fatalf("count = %+v", cnt)
	}
	if in := cnt.Inputs[0]; in.From != "source" || in.Grouping != "fields" || in.Field != 0 {
		t.Fatalf("count input = %+v", in)
	}
	wantAssign := map[string]string{"source": "node1", "count": "node2", "sink": "node3"}
	if got := s.InitialAssignment(); !reflect.DeepEqual(got, wantAssign) {
		t.Fatalf("InitialAssignment = %v", got)
	}
	if got := s.Subscribers("source"); !reflect.DeepEqual(got, []string{"count"}) {
		t.Fatalf("Subscribers(source) = %v", got)
	}
	if got := s.Subscribers("sink"); len(got) != 0 {
		t.Fatalf("Subscribers(sink) = %v", got)
	}
	if got := s.Nodes(); !reflect.DeepEqual(got, []string{"node1", "node2", "node3"}) {
		t.Fatalf("Nodes = %v", got)
	}
}

func TestParseSpecForwardReference(t *testing.T) {
	// A bolt may subscribe to a component declared after it.
	doc := `
topology: fwd
components:
  - id: sink
    kind: bolt.sink
    node: n1
    inputs:
      - from: src
  - id: src
    kind: spout.seq
    node: n1
`
	if _, err := ParseSpec([]byte(doc)); err != nil {
		t.Fatalf("forward reference rejected: %v", err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct{ name, doc, wantSub string }{
		{"no name", "components:\n  - id: s\n    kind: spout.seq\n    node: n1\n", "missing topology name"},
		{"no components", "topology: t\n", "no components"},
		{"unknown top key", "topology: t\nbogus: 1\n", "unknown top-level key"},
		{"batch is gone", "topology: t\nbatch: 32\ncomponents:\n  - id: s\n    kind: spout.seq\n    node: n1\n", `unknown top-level key "batch"`},
		{"unknown kind", "topology: t\ncomponents:\n  - id: s\n    kind: spout.nope\n    node: n1\n", "unknown kind"},
		{"no node", "topology: t\ncomponents:\n  - id: s\n    kind: spout.seq\n", "has no node"},
		{"no id", "topology: t\ncomponents:\n  - kind: spout.seq\n    node: n1\n", "has no id"},
		{"dup id", "topology: t\ncomponents:\n  - id: s\n    kind: spout.seq\n    node: n1\n  - id: s\n    kind: spout.seq\n    node: n1\n", "duplicate component id"},
		{"spout with inputs", "topology: t\ncomponents:\n  - id: s\n    kind: spout.seq\n    node: n1\n    inputs:\n      - from: s2\n  - id: s2\n    kind: spout.seq\n    node: n1\n", "cannot have inputs"},
		{"bolt without inputs", "topology: t\ncomponents:\n  - id: s\n    kind: spout.seq\n    node: n1\n  - id: b\n    kind: bolt.identity\n    node: n1\n", "no inputs"},
		{"unknown upstream", "topology: t\ncomponents:\n  - id: s\n    kind: spout.seq\n    node: n1\n  - id: b\n    kind: bolt.identity\n    node: n1\n    inputs:\n      - from: ghost\n", "unknown component"},
		{"self subscribe", "topology: t\ncomponents:\n  - id: s\n    kind: spout.seq\n    node: n1\n  - id: b\n    kind: bolt.identity\n    node: n1\n    inputs:\n      - from: b\n", "subscribes to itself"},
		{"bad grouping", "topology: t\ncomponents:\n  - id: s\n    kind: spout.seq\n    node: n1\n  - id: b\n    kind: bolt.identity\n    node: n1\n    inputs:\n      - from: s\n        grouping: hash\n", "unknown grouping"},
		{"spout parallel", "topology: t\ncomponents:\n  - id: s\n    kind: spout.seq\n    node: n1\n    parallel: 2\n", "parallel must be 1"},
		{"sink parallel cap", "topology: t\ncomponents:\n  - id: s\n    kind: spout.seq\n    node: n1\n  - id: k\n    kind: bolt.sink\n    node: n1\n    parallel: 2\n    inputs:\n      - from: s\n", "caps parallel"},
		{"param not int", "topology: t\ncomponents:\n  - id: s\n    kind: spout.seq\n    node: n1\n    count: lots\n", "must be an integer"},
		{"no spout", "topology: t\ncomponents:\n  - id: a\n    kind: bolt.identity\n    node: n1\n    inputs:\n      - from: a2\n  - id: a2\n    kind: bolt.identity\n    node: n1\n    inputs:\n      - from: a\n", "no spout"},
		{"yaml error", "topology: t\n\tcomponents: x\n", "tab"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.doc))
			if err == nil {
				t.Fatalf("ParseSpec accepted %q", tc.doc)
			}
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("error %v is not ErrSpec", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestRegisterComponentKinds(t *testing.T) {
	defer delete(componentKinds, "bolt.testonly")
	RegisterBolt("bolt.testonly", false, 0, nil)
	doc := `
topology: t
components:
  - id: s
    kind: spout.seq
    node: n1
  - id: b
    kind: bolt.testonly
    node: n1
    inputs:
      - from: s
`
	if _, err := ParseSpec([]byte(doc)); err != nil {
		t.Fatalf("registered kind rejected: %v", err)
	}
}

// TestExampleTopologyParses keeps the committed quickstart topology
// (examples/wordcount.yaml, also mounted by docker-compose.yml) valid.
func TestExampleTopologyParses(t *testing.T) {
	data, err := os.ReadFile("../../examples/wordcount.yaml")
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("ParseSpec(examples/wordcount.yaml): %v", err)
	}
	if s.Name != "wordcount" || len(s.Components) != 3 {
		t.Fatalf("spec = %+v", s)
	}
	if got := s.Nodes(); len(got) != 3 {
		t.Fatalf("Nodes = %v", got)
	}
}
