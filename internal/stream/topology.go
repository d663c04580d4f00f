package stream

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
)

// GroupingType selects how tuples are routed to a bolt's tasks.
type GroupingType int

// Groupings (the Storm set the benchmarks use).
const (
	// ShuffleGrouping distributes tuples round-robin.
	ShuffleGrouping GroupingType = iota + 1
	// FieldsGrouping routes by hash of one tuple field, so all tuples
	// with the same key hit the same task (required by stateful bolts).
	FieldsGrouping
	// GlobalGrouping routes everything to task 0.
	GlobalGrouping
	// AllGrouping broadcasts to every task.
	AllGrouping
)

// Topology errors.
var (
	ErrDuplicateID   = errors.New("stream: component id already used")
	ErrUnknownSource = errors.New("stream: grouping references unknown component")
	ErrEmptyTopology = errors.New("stream: topology has no spouts")
	ErrBadParallel   = errors.New("stream: parallelism must be positive")
	ErrCycle         = errors.New("stream: topology has a cycle")
)

type input struct {
	from     string
	grouping GroupingType
	field    int
}

type spoutDecl struct {
	id    string
	spout Spout
}

type boltDecl struct {
	id       string
	bolt     Bolt
	parallel int
	inputs   []input
	stateful bool
}

// Topology is a DAG of spouts and bolts under construction.
type Topology struct {
	name    string
	order   []string
	spouts  map[string]*spoutDecl
	bolts   map[string]*boltDecl
	sources map[string]bool
}

// NewTopology starts building a topology.
func NewTopology(name string) *Topology {
	return &Topology{
		name:    name,
		spouts:  make(map[string]*spoutDecl),
		bolts:   make(map[string]*boltDecl),
		sources: make(map[string]bool),
	}
}

// Name returns the topology name.
func (t *Topology) Name() string { return t.name }

// AddSpout declares a source.
func (t *Topology) AddSpout(id string, s Spout) error {
	if t.has(id) {
		return fmt.Errorf("spout %q: %w", id, ErrDuplicateID)
	}
	t.spouts[id] = &spoutDecl{id: id, spout: s}
	t.order = append(t.order, id)
	return nil
}

// AddSource declares an external source: a component whose tuples are
// produced outside this runtime (on another node of a multi-process
// cluster) and delivered via Runtime.InjectBatch. Bolts subscribe to it like
// any local component, but the runtime spawns no pump for it — the
// process hosting the real spout pushes its output across the wire.
func (t *Topology) AddSource(id string) error {
	if t.has(id) {
		return fmt.Errorf("source %q: %w", id, ErrDuplicateID)
	}
	t.sources[id] = true
	t.order = append(t.order, id)
	return nil
}

// BoltBuilder wires a bolt's inputs fluently.
type BoltBuilder struct {
	topo *Topology
	decl *boltDecl
	err  error
}

// AddBolt declares an operator with the given parallelism.
func (t *Topology) AddBolt(id string, b Bolt, parallelism int) *BoltBuilder {
	bb := &BoltBuilder{topo: t}
	if t.has(id) {
		bb.err = fmt.Errorf("bolt %q: %w", id, ErrDuplicateID)
		return bb
	}
	if parallelism <= 0 {
		bb.err = fmt.Errorf("bolt %q parallelism %d: %w", id, parallelism, ErrBadParallel)
		return bb
	}
	_, stateful := b.(StatefulBolt)
	decl := &boltDecl{id: id, bolt: b, parallel: parallelism, stateful: stateful}
	t.bolts[id] = decl
	t.order = append(t.order, id)
	bb.decl = decl
	return bb
}

// Shuffle subscribes the bolt to a component with shuffle grouping.
func (b *BoltBuilder) Shuffle(from string) *BoltBuilder {
	return b.subscribe(from, ShuffleGrouping, 0)
}

// Fields subscribes with fields grouping on the given field index.
func (b *BoltBuilder) Fields(from string, field int) *BoltBuilder {
	return b.subscribe(from, FieldsGrouping, field)
}

// Global subscribes with global grouping (task 0 only).
func (b *BoltBuilder) Global(from string) *BoltBuilder {
	return b.subscribe(from, GlobalGrouping, 0)
}

// All subscribes with broadcast grouping.
func (b *BoltBuilder) All(from string) *BoltBuilder {
	return b.subscribe(from, AllGrouping, 0)
}

// Err returns the first wiring error.
func (b *BoltBuilder) Err() error { return b.err }

func (b *BoltBuilder) subscribe(from string, g GroupingType, field int) *BoltBuilder {
	if b.err != nil {
		return b
	}
	if !b.topo.has(from) {
		b.err = fmt.Errorf("bolt %q input %q: %w", b.decl.id, from, ErrUnknownSource)
		return b
	}
	b.decl.inputs = append(b.decl.inputs, input{from: from, grouping: g, field: field})
	return b
}

func (t *Topology) has(id string) bool {
	if _, ok := t.spouts[id]; ok {
		return true
	}
	if t.sources[id] {
		return true
	}
	_, ok := t.bolts[id]
	return ok
}

// validate checks structure: at least one spout or external source, no
// cycles.
func (t *Topology) validate() error {
	if len(t.spouts) == 0 && len(t.sources) == 0 {
		return ErrEmptyTopology
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(id string) error
	visit = func(id string) error {
		switch color[id] {
		case gray:
			return fmt.Errorf("component %q: %w", id, ErrCycle)
		case black:
			return nil
		}
		color[id] = gray
		if d, ok := t.bolts[id]; ok {
			for _, in := range d.inputs {
				if err := visit(in.from); err != nil {
					return err
				}
			}
		}
		color[id] = black
		return nil
	}
	for id := range t.bolts {
		if err := visit(id); err != nil {
			return err
		}
	}
	return nil
}

// hashField buckets a tuple field for fields grouping: FNV-1a over the
// bytes fmt's %v prints for the value. The common key types are hashed
// in place, byte for byte what %v would have produced, so task placement
// — and with it every restored keyed state — does not depend on which
// path a value takes.
func hashField(v any, buckets int) int {
	if buckets == 1 {
		return 0
	}
	var buf [20]byte // the longest decimal int64/uint64
	var h uint32
	switch x := v.(type) {
	case string:
		h = fnv32a(x)
	case int:
		h = fnv32a(strconv.AppendInt(buf[:0], int64(x), 10))
	case int64:
		h = fnv32a(strconv.AppendInt(buf[:0], x, 10))
	case uint64:
		h = fnv32a(strconv.AppendUint(buf[:0], x, 10))
	default:
		f := fnv.New32a()
		fmt.Fprintf(f, "%v", v)
		h = f.Sum32()
	}
	return int(h % uint32(buckets))
}

func fnv32a[T string | []byte](s T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// sortedBolts returns bolt IDs in dependency order (inputs first).
func (t *Topology) sortedBolts() []string {
	visited := make(map[string]bool)
	var out []string
	var visit func(id string)
	visit = func(id string) {
		if visited[id] {
			return
		}
		visited[id] = true
		d, ok := t.bolts[id]
		if !ok {
			return // spout
		}
		for _, in := range d.inputs {
			visit(in.from)
		}
		out = append(out, id)
	}
	for _, id := range t.order {
		visit(id)
	}
	return out
}
