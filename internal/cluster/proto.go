package cluster

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"time"

	"sr3/internal/id"
	"sr3/internal/metrics"
	"sr3/internal/obs"
	"sr3/internal/simnet"
)

// Wire protocol. Every sr3node serves one TCP listener; the first byte
// of a connection selects the plane:
//
//	'C' — control RPC: one gob request envelope, one gob reply, close.
//	      Join/heartbeat/view/adopt/leave ride here, and "msg": one
//	      recovery-layer message (shard store, fetch, line/tree collect,
//	      placement KV) to the member's view overlay.
//	'T' — tuple stream: a gob flowHello naming the edge, then an
//	      endless sequence of batch-codec frames (stream.EncodeTupleBatch)
//	      carried length-delimited by nettransport.BatchConn — the PR 8
//	      batch plane on a real inter-node link.
const (
	magicRPC  = 'C'
	magicFlow = 'T'
)

// rpcTimeout bounds one control RPC round trip.
const rpcTimeout = 5 * time.Second

// Protocol errors.
var (
	ErrRPC        = errors.New("cluster: rpc failed")
	ErrNotSeed    = errors.New("cluster: this node does not run the control plane")
	ErrUnknownRPC = errors.New("cluster: unknown rpc kind")
	// ErrRejoin is the seed disowning a member's incarnation (declared
	// dead, or superseded): it must join again. It crosses the wire as
	// rpcEnvelope.Code, never as text.
	ErrRejoin = errors.New("cluster: member must rejoin")
)

// rpcCode types the errors a caller acts on; everything else is Err text.
type rpcCode uint8

const codeRejoin rpcCode = 1

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

// rpcEnvelope is the single request/reply frame: Kind selects the
// operation, at most one request pointer is set; the reply reuses the
// same envelope with the matching *Resp pointer (or Err, with Code set
// when the error is one the caller must recognise). Trace is the caller's
// span context; gob omits the zero value, so untraced RPCs pay nothing on
// the wire.
type rpcEnvelope struct {
	Kind  string
	Err   string
	Code  rpcCode
	Trace obs.SpanContext

	Join      *joinReq
	JoinR     *joinResp
	Heartbeat *heartbeatReq
	HeartbtR  *heartbeatResp
	ViewR     *viewResp
	Adopt     *adoptReq
	AdoptR    *adoptResp
	Leave     *leaveReq
	LeaveR    *leaveResp
	Msg       *overlayMsg
	MsgR      *simnet.Message
	MPull     *metricsPullReq
	MPullR    *metricsPullResp
	ODump     *obsDumpReq
	ODumpR    *obsDumpResp
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

type viewResp struct {
	View View
}

// adoptReq tells a node to host additional components (a dead node's
// set). The node builds a new cell for them, marks stateful tasks dead,
// and recovers their state from scattered shards; the control plane
// flips routing (epoch bump) only after the adopt reply. Trace is the
// seed's adopt span: the adopter parents its recover/fetch/replay spans
// on it, so one kill-to-recovered incident is a single connected trace.
type adoptReq struct {
	Components []string
	Epoch      int64
	Trace      obs.SpanContext
}

type adoptResp struct{}

type leaveReq struct {
	Name        string
	Incarnation int64
}

type leaveResp struct{}

// overlayMsg is one recovery-layer message between view overlays; the
// payload types are the ones recovery.RegisterWire registers with gob.
type overlayMsg struct {
	From id.ID
	Msg  simnet.Message
}

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

// rpcCall dials addr, sends one envelope and decodes the reply.
func rpcCall(addr string, req *rpcEnvelope, timeout time.Duration) (*rpcEnvelope, error) {
	if timeout <= 0 {
		timeout = rpcTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrRPC, addr, err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write([]byte{magicRPC}); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrRPC, addr, err)
	}
	if err := gob.NewEncoder(conn).Encode(req); err != nil {
		return nil, fmt.Errorf("%w: encode to %s: %v", ErrRPC, addr, err)
	}
	var resp rpcEnvelope
	if err := gob.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		return nil, fmt.Errorf("%w: decode from %s: %v", ErrRPC, addr, err)
	}
	if resp.Err != "" {
		err := fmt.Errorf("%w: %s: remote: %s", ErrRPC, addr, resp.Err)
		if resp.Code == codeRejoin {
			err = fmt.Errorf("%w: %w", ErrRejoin, err)
		}
		return nil, err
	}
	return &resp, nil
}
