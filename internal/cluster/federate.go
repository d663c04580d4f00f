package cluster

import (
	"bytes"
	"io"
	"sync"
	"time"

	"sr3/internal/metrics"
	"sr3/internal/simnet"
)

// federator is the seed's metrics-federation engine: at the federate
// interval it pulls every live member's registry snapshot plus debug
// view with a cluster.metricspull message, rebuilds member registries from
// the snapshots, and serves one merged node=-labeled Prometheus scrape
// at /metrics/cluster and a cluster topology JSON at /debug/sr3/cluster.
//
// The pull model (rather than member push) keeps members ignorant of who
// observes them and makes staleness handling purely a seed concern:
// after every cycle, any registered member that is no longer live in the
// current view — or whose registered snapshot belongs to a superseded
// incarnation — is evicted, so a crashed node's series disappear from
// the cluster scrape and a crash-and-rejoin never serves the previous
// incarnation's counters as if they were the new process's.
type federator struct {
	node *Node
	fed  *metrics.ClusterRegistry

	mu     sync.Mutex
	incs   map[string]int64     // member -> incarnation of the registered snapshot
	debugs map[string]NodeDebug // member -> last pulled debug view

	stop chan struct{}
	done chan struct{}
}

func newFederator(n *Node) *federator {
	f := &federator{
		node:   n,
		fed:    metrics.NewClusterRegistry(),
		incs:   map[string]int64{},
		debugs: map[string]NodeDebug{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	// The seed's own registry is registered live (by reference): it is
	// always current and never pulled or evicted.
	f.fed.Register(n.cfg.Name, n.reg)
	return f
}

func (f *federator) start() { go f.loop() }

func (f *federator) close() {
	close(f.stop)
	<-f.done
}

func (f *federator) loop() {
	defer close(f.done)
	tick := time.NewTicker(f.node.cfg.FederateInterval)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
			f.pullAll()
		}
	}
}

// pullAll runs one federation cycle: pull every live member, then evict
// everything the current view no longer vouches for.
func (f *federator) pullAll() {
	view := f.node.currentView()
	live := map[string]int64{}
	for _, m := range view.liveMembers() {
		live[m.Name] = m.Incarnation
		if m.Name == f.node.cfg.Name {
			continue
		}
		f.pull(m)
	}
	f.mu.Lock()
	for name, inc := range f.incs {
		if cur, ok := live[name]; !ok || cur != inc {
			// Dead, departed, or superseded by a newer incarnation whose
			// snapshot has not replaced this one: stop serving its series.
			f.fed.Unregister(name)
			delete(f.incs, name)
			delete(f.debugs, name)
		}
	}
	f.mu.Unlock()
}

func (f *federator) pull(m Member) {
	r, err := call[metricsPullResp](f.node, m.Addr, simnet.Message{Kind: kindMetricsPull, Payload: &metricsPullReq{}}, rpcTimeout)
	if err != nil {
		f.node.logf("federate: pull %s: %v", m.Name, err)
		return
	}
	reg := metrics.RegistryFromSnapshot(r.Registry)
	f.mu.Lock()
	f.fed.Register(m.Name, reg) // replaces the previous cycle's snapshot
	f.incs[m.Name] = r.Incarnation
	f.debugs[m.Name] = r.Debug
	f.mu.Unlock()
}

// scrape renders the federated cluster exposition.
func (f *federator) scrape(w io.Writer) error { return f.fed.WritePrometheus(w) }

// ClusterDebug is the /debug/sr3/cluster snapshot: the control plane's
// epoch view plus the last pulled per-member debug views.
type ClusterDebug struct {
	Seed    string               `json:"seed"`
	Epoch   int64                `json:"epoch"`
	Members []Member             `json:"members"`
	Assign  map[string]string    `json:"assign"`
	Nodes   map[string]NodeDebug `json:"nodes"`
}

func (f *federator) clusterDebug() ClusterDebug {
	v := f.node.currentView()
	d := ClusterDebug{
		Seed:    f.node.cfg.Name,
		Epoch:   v.Epoch,
		Members: v.Members,
		Assign:  v.Assign,
		Nodes:   map[string]NodeDebug{},
	}
	f.mu.Lock()
	for name, nd := range f.debugs {
		d.Nodes[name] = nd
	}
	f.mu.Unlock()
	d.Nodes[f.node.cfg.Name] = f.node.Debug() // seed's view is always live
	return d
}

// FederateNow forces one federation cycle outside the timer — the test
// hook that makes churn assertions deterministic. Seed only.
func (n *Node) FederateNow() error {
	if n.fed == nil {
		return ErrNotSeed
	}
	n.fed.pullAll()
	return nil
}

// ClusterScrape renders the federated /metrics/cluster exposition as a
// string. Seed only.
func (n *Node) ClusterScrape() (string, error) {
	if n.fed == nil {
		return "", ErrNotSeed
	}
	var b bytes.Buffer
	if err := n.fed.scrape(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// ClusterDebugSnapshot builds the /debug/sr3/cluster view. Seed only.
func (n *Node) ClusterDebugSnapshot() (ClusterDebug, error) {
	if n.fed == nil {
		return ClusterDebug{}, ErrNotSeed
	}
	return n.fed.clusterDebug(), nil
}
