package cluster

import (
	"errors"
	"fmt"
	"sort"

	"sr3/internal/stream"
)

// Spec is a declarative topology for a multi-process cluster: which
// components exist, how they are wired, and which node initially hosts
// each one. The seed loads it from YAML and serves it to joining nodes;
// the control plane owns the *current* assignment, which drifts from
// the spec as failures move components.
type Spec struct {
	// Name is the topology name (task keys are Name/bolt/index).
	Name string
	// SaveEvery triggers an automatic state save after a stateful task
	// processes this many tuples (default 500).
	SaveEvery int
	// Shards and Replicas size state protection: every save splits the
	// snapshot into Shards fragments × Replicas copies scattered across
	// peer processes (defaults 4 and 2).
	Shards   int
	Replicas int
	// ChannelDepth is the per-task queue capacity (default 1024).
	ChannelDepth int
	// Components in declaration order.
	Components []Component
}

// Component is one spout or bolt declaration.
type Component struct {
	ID       string
	Kind     string // registry name: spout.seq, bolt.counter, bolt.sink, bolt.identity
	Node     string // initial host node name
	Parallel int
	Params   map[string]int64 // kind-specific integer knobs
	Inputs   []Input
}

// Input subscribes a bolt to an upstream component.
type Input struct {
	From     string
	Grouping string // shuffle | fields | global | all
	Field    int
}

// Spec errors.
var (
	ErrSpec = errors.New("cluster: invalid topology spec")
)

func specErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSpec, fmt.Sprintf(format, args...))
}

// ParseSpec parses and validates a YAML topology spec.
func ParseSpec(data []byte) (*Spec, error) {
	doc, err := parseYAML(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	s := &Spec{}
	for key, v := range doc {
		switch key {
		case "topology":
			s.Name, _ = v.(string)
		case "save_every":
			s.SaveEvery = intOr(v, 0)
		case "shards":
			s.Shards = intOr(v, 0)
		case "replicas":
			s.Replicas = intOr(v, 0)
		case "channel_depth":
			s.ChannelDepth = intOr(v, 0)
		case "components":
			list, ok := v.([]any)
			if !ok {
				return nil, specErrf("components must be a list")
			}
			for i, item := range list {
				m, ok := item.(map[string]any)
				if !ok {
					return nil, specErrf("component %d must be a mapping", i)
				}
				c, err := parseComponent(m)
				if err != nil {
					return nil, err
				}
				s.Components = append(s.Components, c)
			}
		default:
			return nil, specErrf("unknown top-level key %q", key)
		}
	}
	if err := s.normalize(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseComponent(m map[string]any) (Component, error) {
	c := Component{Parallel: 1, Params: map[string]int64{}}
	for key, v := range m {
		switch key {
		case "id":
			c.ID = fmt.Sprint(v)
		case "kind":
			c.Kind, _ = v.(string)
		case "node":
			c.Node = fmt.Sprint(v)
		case "parallel":
			c.Parallel = intOr(v, 1)
		case "inputs":
			list, ok := v.([]any)
			if !ok {
				return c, specErrf("component %q: inputs must be a list", c.ID)
			}
			for _, item := range list {
				im, ok := item.(map[string]any)
				if !ok {
					return c, specErrf("component %q: each input must be a mapping", c.ID)
				}
				in := Input{Grouping: "shuffle"}
				for k, iv := range im {
					switch k {
					case "from":
						in.From = fmt.Sprint(iv)
					case "grouping":
						in.Grouping, _ = iv.(string)
					case "field":
						in.Field = intOr(iv, 0)
					default:
						return c, specErrf("component %q: unknown input key %q", c.ID, k)
					}
				}
				c.Inputs = append(c.Inputs, in)
			}
		default:
			// Everything else is a kind-specific integer knob.
			n, ok := v.(int64)
			if !ok {
				return c, specErrf("component %q: param %q must be an integer", c.ID, key)
			}
			c.Params[key] = n
		}
	}
	return c, nil
}

func intOr(v any, def int) int {
	if n, ok := v.(int64); ok {
		return int(n)
	}
	return def
}

// normalize applies defaults and validates the wiring.
func (s *Spec) normalize() error {
	if s.Name == "" {
		return specErrf("missing topology name")
	}
	if s.SaveEvery <= 0 {
		s.SaveEvery = 500
	}
	if s.Shards <= 0 {
		s.Shards = 4
	}
	if s.Replicas <= 0 {
		s.Replicas = 2
	}
	if s.ChannelDepth <= 0 {
		s.ChannelDepth = 1024
	}
	if len(s.Components) == 0 {
		return specErrf("no components")
	}
	seen := map[string]bool{}
	spouts := 0
	for i := range s.Components {
		c := &s.Components[i]
		if c.ID == "" {
			return specErrf("component %d has no id", i)
		}
		if seen[c.ID] {
			return specErrf("duplicate component id %q", c.ID)
		}
		seen[c.ID] = true
		if c.Node == "" {
			return specErrf("component %q has no node", c.ID)
		}
		if c.Parallel < 1 {
			return specErrf("component %q: parallel must be >= 1", c.ID)
		}
		spec, ok := componentKinds[c.Kind]
		if !ok {
			return specErrf("component %q: unknown kind %q", c.ID, c.Kind)
		}
		if spec.spout {
			spouts++
			if len(c.Inputs) > 0 {
				return specErrf("spout %q cannot have inputs", c.ID)
			}
			if c.Parallel != 1 {
				return specErrf("spout %q: parallel must be 1", c.ID)
			}
		} else if len(c.Inputs) == 0 {
			return specErrf("bolt %q has no inputs", c.ID)
		}
		if spec.maxParallel > 0 && c.Parallel > spec.maxParallel {
			return specErrf("component %q: kind %s caps parallel at %d", c.ID, c.Kind, spec.maxParallel)
		}
		for _, in := range c.Inputs {
			if !seen[in.From] && !declaredLater(s.Components, in.From) {
				return specErrf("component %q: input from unknown component %q", c.ID, in.From)
			}
			if in.From == c.ID {
				return specErrf("component %q subscribes to itself", c.ID)
			}
			if _, err := groupingOf(in); err != nil {
				return specErrf("component %q: %v", c.ID, err)
			}
			if in.Field < 0 {
				return specErrf("component %q: negative grouping field", c.ID)
			}
		}
	}
	if spouts == 0 {
		return specErrf("topology has no spout")
	}
	return nil
}

func declaredLater(comps []Component, id string) bool {
	for i := range comps {
		if comps[i].ID == id {
			return true
		}
	}
	return false
}

func groupingOf(in Input) (stream.GroupingType, error) {
	switch in.Grouping {
	case "shuffle", "":
		return stream.ShuffleGrouping, nil
	case "fields":
		return stream.FieldsGrouping, nil
	case "global":
		return stream.GlobalGrouping, nil
	case "all":
		return stream.AllGrouping, nil
	default:
		return 0, fmt.Errorf("unknown grouping %q", in.Grouping)
	}
}

// Component returns the declaration for id (nil when absent).
func (s *Spec) Component(id string) *Component {
	for i := range s.Components {
		if s.Components[i].ID == id {
			return &s.Components[i]
		}
	}
	return nil
}

// InitialAssignment maps every component to its spec-pinned node.
func (s *Spec) InitialAssignment() map[string]string {
	out := make(map[string]string, len(s.Components))
	for i := range s.Components {
		out[s.Components[i].ID] = s.Components[i].Node
	}
	return out
}

// Subscribers lists the component IDs with an input from id, sorted.
func (s *Spec) Subscribers(id string) []string {
	var out []string
	for i := range s.Components {
		for _, in := range s.Components[i].Inputs {
			if in.From == id {
				out = append(out, s.Components[i].ID)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Nodes lists every node named in the spec, sorted.
func (s *Spec) Nodes() []string {
	set := map[string]bool{}
	for i := range s.Components {
		set[s.Components[i].Node] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
