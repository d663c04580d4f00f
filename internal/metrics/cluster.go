package metrics

import (
	"io"
	"sort"
	"sync"
)

// ClusterRegistry aggregates per-node registries into one cluster-wide
// Prometheus scrape: every member's samples are emitted under a
// node="<name>" label, with # HELP / # TYPE written once per metric
// family. One scrape of one endpoint then shows the whole simnet (or
// TCP) cluster — runtime, ring and recovery families side by side.
//
// Merged() additionally rolls all members up into a single unlabeled
// registry: HDR histograms merge bucket-wise (associative and
// commutative, hdr.go), counters and gauges sum.
type ClusterRegistry struct {
	mu   sync.Mutex
	regs map[string]*Registry
}

// NewClusterRegistry returns an empty cluster registry.
func NewClusterRegistry() *ClusterRegistry {
	return &ClusterRegistry{regs: make(map[string]*Registry)}
}

// Register attaches a member registry under the node label. Registering
// an existing label replaces its registry (a restarted node re-attaches).
func (c *ClusterRegistry) Register(node string, reg *Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.regs[node] = reg
}

// Node returns the member registry for the label, creating and
// registering an empty one on first use — the create-on-first-use idiom
// of Registry lifted to whole nodes.
func (c *ClusterRegistry) Node(node string) *Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	reg, ok := c.regs[node]
	if !ok {
		reg = NewRegistry()
		c.regs[node] = reg
	}
	return reg
}

// members snapshots the labels and registries in label-sorted order.
func (c *ClusterRegistry) members() ([]string, []*Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := make([]string, 0, len(c.regs))
	for n := range c.regs {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	regs := make([]*Registry, len(nodes))
	for i, n := range nodes {
		regs[i] = c.regs[n]
	}
	return nodes, regs
}

// Merged rolls every member up into one fresh unlabeled registry:
// histograms via bucket-wise Merge, counters and gauges by summation.
// The result is a snapshot — it does not track later recording.
func (c *ClusterRegistry) Merged() *Registry {
	_, regs := c.members()
	out := NewRegistry()
	for _, reg := range regs {
		s := reg.snapshot()
		for _, name := range s.histNames {
			out.Histogram(name).Merge(s.hists[name])
		}
		for _, name := range s.gaugeNames {
			out.Gauge(name).Add(s.gauges[name].Value())
		}
		for _, name := range s.counterNames {
			out.Counter(name).Add(s.counters[name].Value())
		}
	}
	return out
}

// WritePrometheus renders every member's instruments as one text
// exposition, each sample labeled with its node. Family metadata
// (# HELP / # TYPE) is emitted once per metric name; a name used with
// conflicting instrument types by different nodes keeps the first type
// seen and skips the conflicting series.
func (c *ClusterRegistry) WritePrometheus(w io.Writer) error {
	nodes, regs := c.members()
	snaps := make([]regSnapshot, len(regs))
	for i, reg := range regs {
		snaps[i] = reg.snapshot()
	}

	// Union of metric names per type, with first-seen-type conflict
	// resolution keyed on the sanitized name (what the scrape exposes).
	typeOf := make(map[string]string)
	helpOf := make(map[string]string)
	var names []string
	note := func(name, typ, help string) {
		pn, _ := family(name)
		if _, ok := typeOf[pn]; ok {
			return
		}
		typeOf[pn] = typ
		helpOf[pn] = help
		names = append(names, pn)
	}
	for _, s := range snaps {
		for _, n := range s.histNames {
			note(n, "histogram", s.help[n])
		}
		for _, n := range s.gaugeNames {
			note(n, "gauge", s.help[n])
		}
		for _, n := range s.counterNames {
			note(n, "counter", s.help[n])
		}
	}
	sort.Strings(names)

	for _, pn := range names {
		typ := typeOf[pn]
		if err := writeMeta(w, pn, helpOf[pn], typ); err != nil {
			return err
		}
		for i, s := range snaps {
			node := `node="` + escapeLabelValue(nodes[i]) + `"`
			// labels is the member's label ahead of the ones name carries,
			// when name belongs to this family.
			labels := func(name string) (string, bool) {
				fam, own := family(name)
				if fam != pn || own == "" {
					return node, fam == pn
				}
				return node + "," + own, true
			}
			switch typ {
			case "histogram":
				for _, n := range s.histNames {
					if l, ok := labels(n); ok {
						if err := writeHistogramProm(w, pn, l, s.hists[n]); err != nil {
							return err
						}
					}
				}
			case "gauge":
				for _, n := range s.gaugeNames {
					if l, ok := labels(n); ok {
						if err := writeSampleProm(w, pn, l, s.gauges[n].Value()); err != nil {
							return err
						}
					}
				}
			case "counter":
				for _, n := range s.counterNames {
					if l, ok := labels(n); ok {
						if err := writeSampleProm(w, pn, l, s.counters[n].Value()); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	return nil
}

// PrometheusWriter is anything that renders itself as Prometheus text —
// a single Registry or a whole ClusterRegistry. The metrics HTTP server
// (internal/obs) serves either.
type PrometheusWriter interface {
	WritePrometheus(w io.Writer) error
}

var (
	_ PrometheusWriter = (*Registry)(nil)
	_ PrometheusWriter = (*ClusterRegistry)(nil)
)
