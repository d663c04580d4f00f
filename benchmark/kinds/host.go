package kinds

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sr3/internal/cluster"
	"sr3/internal/stream"
)

// Host registers the bench kinds with the daemon's component registry and
// remembers the instance each factory last built in this process, so the
// process can serve their digests. A factory runs again when the control
// plane moves a component here; the newest instance is the live one.
type Host struct {
	mu    sync.Mutex
	spout *Spout
	state *State
	sink  *Sink
}

// Register adds spout.bench, bolt.benchstate and bolt.benchsink to the
// cluster registry. Call once, before cluster.StartNode.
func (h *Host) Register() {
	cluster.RegisterSpout("spout.bench", func(c cluster.Component, stop <-chan struct{}) (stream.Spout, error) {
		s := NewSpout(c, stop)
		h.mu.Lock()
		h.spout = s
		h.mu.Unlock()
		return s, nil
	})
	cluster.RegisterBolt("bolt.benchstate", true, 1, func(c cluster.Component) (stream.Bolt, error) {
		b := NewState(c)
		h.mu.Lock()
		h.state = b
		h.mu.Unlock()
		return b, nil
	})
	cluster.RegisterBolt("bolt.benchsink", true, 1, func(cluster.Component) (stream.Bolt, error) {
		b := NewSink()
		h.mu.Lock()
		h.sink = b
		h.mu.Unlock()
		return b, nil
	})
}

// Digest is what one benchnode serves on its bench listener: the node's
// view of the cluster and the digest of each bench kind it hosts.
type Digest struct {
	Node   string            `json:"node"`
	NowNs  int64             `json:"now_ns"`
	Epoch  int64             `json:"epoch"`
	Alive  map[string]bool   `json:"alive"`
	Assign map[string]string `json:"assign"`
	Spout  *SpoutDigest      `json:"spout,omitempty"`
	State  *StateDigest      `json:"state,omitempty"`
	Sink   *SinkDigest       `json:"sink,omitempty"`
}

// Handler serves GET /digest?level=0|1|2 for node.
func (h *Host) Handler(node *cluster.Node) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		level, _ := strconv.Atoi(r.URL.Query().Get("level"))
		v := node.View()
		d := Digest{
			Node: node.Name(), NowNs: time.Now().UnixNano(),
			Epoch: v.Epoch, Alive: map[string]bool{}, Assign: v.Assign,
		}
		for _, m := range v.Members {
			d.Alive[m.Name] = m.Alive
		}
		h.mu.Lock()
		spout, st, sink := h.spout, h.state, h.sink
		h.mu.Unlock()
		if spout != nil {
			s := spout.Digest(level >= 1)
			d.Spout = &s
		}
		// The state walk costs O(keys): end of run only.
		if st != nil && level >= 2 {
			s := st.Digest()
			d.State = &s
		}
		if sink != nil {
			s := sink.Digest(level)
			d.Sink = &s
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d)
	})
}
