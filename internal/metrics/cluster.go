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
	mu    sync.Mutex
	order []string // registration order, for deterministic iteration
	regs  map[string]*Registry
	help  map[string]string
}

// NewClusterRegistry returns an empty cluster registry.
func NewClusterRegistry() *ClusterRegistry {
	return &ClusterRegistry{
		regs: make(map[string]*Registry),
		help: make(map[string]string),
	}
}

// Register attaches a member registry under the node label. Registering
// an existing label replaces its registry (a restarted node re-attaches).
func (c *ClusterRegistry) Register(node string, reg *Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.regs[node]; !ok {
		c.order = append(c.order, node)
	}
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
		c.order = append(c.order, node)
	}
	return reg
}

// Unregister detaches a member (a decommissioned node).
func (c *ClusterRegistry) Unregister(node string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.regs[node]; !ok {
		return
	}
	delete(c.regs, node)
	for i, n := range c.order {
		if n == node {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// Nodes lists the member labels in registration order.
func (c *ClusterRegistry) Nodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// SetHelp attaches # HELP text to a metric family in the cluster scrape,
// overriding the built-in catalog.
func (c *ClusterRegistry) SetHelp(name, text string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.help[name] = text
}

// members snapshots the labels and registries in label-sorted order.
func (c *ClusterRegistry) members() ([]string, []*Registry, map[string]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := append([]string(nil), c.order...)
	sort.Strings(nodes)
	regs := make([]*Registry, len(nodes))
	for i, n := range nodes {
		regs[i] = c.regs[n]
	}
	help := make(map[string]string, len(c.help))
	for k, v := range c.help {
		help[k] = v
	}
	return nodes, regs, help
}

// Merged rolls every member up into one fresh unlabeled registry:
// histograms via bucket-wise Merge, counters and gauges by summation.
// The result is a snapshot — it does not track later recording.
func (c *ClusterRegistry) Merged() *Registry {
	_, regs, _ := c.members()
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
	nodes, regs, clusterHelp := c.members()
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
		if h, ok := clusterHelp[name]; ok {
			help = h
		}
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
