package cluster

import (
	"sr3/internal/metrics"
	"sr3/internal/simnet"
)

// ClusterDebug is the /debug/sr3/cluster snapshot: the control plane's
// epoch view plus every live member's debug view, pulled for the request.
type ClusterDebug struct {
	Seed    string               `json:"seed"`
	Epoch   int64                `json:"epoch"`
	Members []Member             `json:"members"`
	Assign  map[string]string    `json:"assign"`
	Nodes   map[string]NodeDebug `json:"nodes"`
}

// pullMetrics is what the seed's /metrics/cluster and /debug/sr3/cluster
// serve: every live member's registry snapshot and debug view, pulled at
// the request with one cluster.metricspull fan-out, as a fresh
// node="<name>"-labelled registry and the debug views by member name.
// Only the members the current view lists as live are asked, so a dead
// or superseded incarnation's series never appear and the seed keeps
// nothing it would have to evict.
func (n *Node) pullMetrics() (*metrics.ClusterRegistry, map[string]NodeDebug) {
	reg, debugs := metrics.NewClusterRegistry(), map[string]NodeDebug{}
	for _, r := range pull[metricsPullResp](n, simnet.Message{Kind: kindMetricsPull, Payload: &metricsPullReq{}}) {
		reg.Register(r.Node, metrics.RegistryFromSnapshot(r.Registry))
		debugs[r.Node] = r.Debug
	}
	return reg, debugs
}
