package cluster

import (
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"sr3/internal/id"
	"sr3/internal/metrics"
	"sr3/internal/nettransport"
	"sr3/internal/obs"
	"sr3/internal/simnet"
)

// Wire protocol. Every sr3node serves one TCP listener; the first byte
// of a connection selects the plane:
//
//	'C' — nettransport's request/reply exchange (nettransport.Magic):
//	      one simnet.Message each way, then close. Everything the daemon
//	      says that is not a tuple rides here as a message kind to the
//	      member's one handler table (viewOverlay): the cluster.* kinds
//	      below, whose request and reply structs are the gob-registered
//	      Payload, and the recovery layer's own kinds (shard store, fetch,
//	      line/tree collect), which are simply themselves. Shard and
//	      placement bytes are the message's Raw body — chunk frames written
//	      from the source slice into a pooled buffer, never gob.
//	'T' — tuple stream: a gob flowHello naming the edge, one byte back
//	      (flowAccepted, or flowRefused and close when no ready cell hosts
//	      the destination), then an endless sequence of batch-codec frames
//	      (stream.EncodeTupleBatch) carried length-delimited by
//	      nettransport.BatchConn.
const magicFlow = 'T'

// The answer to a flowHello.
const (
	flowRefused  = 0
	flowAccepted = 1
)

// The daemon's own message kinds. The control plane's (join, heartbeat,
// view, leave) are served by every node and answered ErrNotSeed by all
// but the seed.
const (
	kindJoin        = "cluster.join"
	kindHeartbeat   = "cluster.heartbeat"
	kindView        = "cluster.view"
	kindLeave       = "cluster.leave"
	kindAdopt       = "cluster.adopt"
	kindMetricsPull = "cluster.metricspull"
	kindObsDump     = "cluster.obsdump"
	// The placement KV: Payload is the key, Raw the value (of the request
	// for put, of the reply for get).
	kindKVPut = "cluster.kv.put"
	kindKVGet = "cluster.kv.get"
)

// rpcTimeout bounds one control round trip: the caller's deadline for
// every read and write of the exchange, the handler's answer included.
// Tests of a peer that never answers shorten it.
var rpcTimeout = 5 * time.Second

// Protocol errors.
var (
	ErrRPC        = errors.New("cluster: rpc failed")
	ErrNotSeed    = errors.New("cluster: this node does not run the control plane")
	ErrUnknownRPC = errors.New("cluster: unknown rpc kind")
	// ErrRejoin is the seed disowning a member's incarnation (declared
	// dead, or superseded): it must join again.
	ErrRejoin = errors.New("cluster: member must rejoin")
)

func init() {
	// The errors a caller acts on cross the wire as codes, never as text.
	nettransport.RegisterError(16, ErrRejoin)
	nettransport.RegisterError(17, ErrNotSeed)
	for _, payload := range []any{
		&joinReq{}, &joinResp{}, &heartbeatReq{}, &heartbeatResp{}, &viewReq{}, &viewResp{},
		&leaveReq{}, &leaveResp{}, &adoptReq{}, &adoptResp{},
		&metricsPullReq{}, &metricsPullResp{}, &obsDumpReq{}, &obsDumpResp{},
	} {
		gob.Register(payload)
	}
}

// call sends one cluster.* request to the node listening at addr — one
// dial, the caller owns the retry — and returns its reply's payload.
func call[Resp any](n *Node, addr string, msg simnet.Message, timeout time.Duration) (*Resp, error) {
	reply, err := n.net.Exchange(addr, n.backend.overlay.self, msg, timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrRPC, msg.Kind, err)
	}
	resp, ok := reply.Payload.(*Resp)
	if !ok {
		return nil, fmt.Errorf("%w: %s to %s: reply carries %T", ErrRPC, msg.Kind, addr, reply.Payload)
	}
	return resp, nil
}

// serve registers f in the handler table as kind: the request's payload
// must be a *Req (f also sees the message that carried it), the reply's
// is what f returns.
func serve[Req, Resp any](o *viewOverlay, kind string, f func(simnet.Message, *Req) (*Resp, error)) {
	o.HandleDirect(kind, func(_ id.ID, msg simnet.Message) (simnet.Message, error) {
		req, ok := msg.Payload.(*Req)
		if !ok {
			return simnet.Message{}, fmt.Errorf("%w: %s carries %T", ErrUnknownRPC, kind, msg.Payload)
		}
		resp, err := f(msg, req)
		if err != nil {
			return simnet.Message{}, err
		}
		return simnet.Message{Kind: kind, Payload: resp}, nil
	})
}

// seedOnly is f on the seed and ErrNotSeed on every other node.
func seedOnly[Req, Resp any](n *Node, f func(*controlPlane, *Req) (*Resp, error)) func(simnet.Message, *Req) (*Resp, error) {
	return func(_ simnet.Message, req *Req) (*Resp, error) {
		if n.control == nil {
			return nil, ErrNotSeed
		}
		return f(n.control, req)
	}
}

// registerHandlers puts the cluster.* kinds in the table the recovery
// layer's handlers and the placement KV already share.
func (n *Node) registerHandlers() {
	o := n.backend.overlay
	serve(o, kindJoin, seedOnly(n, (*controlPlane).handleJoin))
	serve(o, kindHeartbeat, seedOnly(n, (*controlPlane).handleHeartbeat))
	serve(o, kindLeave, seedOnly(n, (*controlPlane).handleLeave))
	serve(o, kindView, seedOnly(n, func(cp *controlPlane, _ *viewReq) (*viewResp, error) {
		return &viewResp{View: cp.snapshotView()}, nil
	}))
	serve(o, kindMetricsPull, func(simnet.Message, *metricsPullReq) (*metricsPullResp, error) {
		n.sampleGauges()
		return &metricsPullResp{
			Node:        n.cfg.Name,
			Incarnation: n.incarnation.Load(),
			Registry:    n.reg.Snapshot(),
			Debug:       n.Debug(),
		}, nil
	})
	serve(o, kindObsDump, func(simnet.Message, *obsDumpReq) (*obsDumpResp, error) {
		dump := n.localObsDump()
		return &dump, nil
	})
	// The seed's adopt span rides the message's trace context.
	serve(o, kindAdopt, func(msg simnet.Message, req *adoptReq) (*adoptResp, error) {
		return &adoptResp{}, n.handleAdopt(req, obs.SpanContext{Trace: msg.TraceID, Span: msg.SpanID})
	})
}

// Member is one cluster node as the control plane sees it.
type Member struct {
	Name        string
	Addr        string // cluster (RPC + flow) address
	HTTP        string // metrics/debug address ("" when disabled)
	Alive       bool
	Incarnation int64 // bumped on every (re)join under the same name
}

// View is the control plane's replicated routing state: membership plus
// the current component->node assignment, versioned by Epoch. Nodes
// refresh it when a heartbeat reply advertises a newer epoch.
type View struct {
	Epoch   int64
	Members []Member
	Assign  map[string]string
}

// member returns the view's record for name (nil when absent).
func (v *View) member(name string) *Member {
	for i := range v.Members {
		if v.Members[i].Name == name {
			return &v.Members[i]
		}
	}
	return nil
}

// liveMembers returns the names of all live members, sorted by name.
func (v *View) liveMembers() []Member {
	var out []Member
	for _, m := range v.Members {
		if m.Alive {
			out = append(out, m)
		}
	}
	return out
}

type joinReq struct {
	Name        string
	Addr        string
	HTTP        string
	Incarnation int64
}

type joinResp struct {
	View View
	Spec Spec
}

type heartbeatReq struct {
	Name        string
	Incarnation int64
	Epoch       int64 // view epoch the sender has applied
}

type heartbeatResp struct {
	Epoch int64
}

type viewReq struct{}

type viewResp struct {
	View View
}

// adoptReq tells a node to host additional components (a dead node's
// set). The node builds a new cell for them, marks stateful tasks dead,
// and recovers their state from scattered shards; the control plane
// flips routing (epoch bump) only after the adopt reply. The message
// carrying it is stamped with the seed's adopt span: the adopter parents
// its recover/fetch/replay spans on it, so one kill-to-recovered incident
// is a single connected trace.
type adoptReq struct {
	Components []string
	Epoch      int64
}

type adoptResp struct{}

type leaveReq struct {
	Name        string
	Incarnation int64
}

type leaveResp struct{}

// metricsPullReq asks a member for its full registry snapshot plus its
// debug view — one federation cycle's worth of state. Issued by the
// seed at the federation interval.
type metricsPullReq struct{}

type metricsPullResp struct {
	Node        string
	Incarnation int64
	Registry    metrics.RegistrySnapshot
	Debug       NodeDebug
}

// obsDumpReq asks a member for its observability journal: the flight
// recorder ring and every span its local collector holds (binary span
// batch, obs/wire.go). The seed uses it to stitch distributed traces
// and to merge a cluster-wide post-mortem timeline.
type obsDumpReq struct{}

type obsDumpResp struct {
	Node        string
	Incarnation int64
	Flight      []obs.FlightEvent
	Spans       []byte // obs binary span batch (Collector.ExportBinary)
}

// flowHello opens a tuple stream: it names the edge (producer component
// -> consumer component) so the receiver injects into the right cell,
// and the producer's node for the logs.
type flowHello struct {
	FromNode string
	FromComp string
	DestComp string
}
