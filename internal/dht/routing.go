package dht

import (
	"fmt"

	"sr3/internal/id"
	"sr3/internal/simnet"
)

// routeRequest carries an application message toward the root of Key.
type routeRequest struct {
	Key   id.ID
	Hops  int
	Inner simnet.Message
}

// routeReply returns the application reply plus routing metadata.
type routeReply struct {
	Root  id.ID
	Hops  int
	Inner simnet.Message
}

// Route sends msg toward the root node for key, starting at this node, and
// returns the application reply along with the root's ID and hop count.
func (n *Node) Route(key id.ID, msg simnet.Message) (simnet.Message, id.ID, int, error) {
	if !n.Joined() {
		return simnet.Message{}, id.Zero, 0, ErrNotJoined
	}
	req := &routeRequest{Key: key, Inner: msg}
	reply, err := n.routeStep(req)
	if err != nil {
		n.instr.load().noteRouteFailure()
		return simnet.Message{}, id.Zero, 0, err
	}
	n.instr.load().noteRoute(reply.Hops)
	return reply.Inner, reply.Root, reply.Hops, nil
}

// handleRoute processes a route message arriving from another node.
func (n *Node) handleRoute(req *routeRequest) (simnet.Message, error) {
	reply, err := n.routeStep(req)
	if err != nil {
		return simnet.Message{}, err
	}
	return simnet.Message{
		Kind:    kindRoute,
		Size:    msgHeader + reply.Inner.Size,
		Payload: reply,
	}, nil
}

// routeStep either delivers locally (we are the root) or forwards to the
// next hop, retrying past dead neighbors.
func (n *Node) routeStep(req *routeRequest) (*routeReply, error) {
	const maxRetries = 8
	for attempt := 0; attempt < maxRetries; attempt++ {
		next, deliverHere := n.nextHop(req.Key)
		if deliverHere {
			inner, err := n.deliverLocal(req.Key, req.Inner)
			if err != nil {
				return nil, err
			}
			return &routeReply{Root: n.id, Hops: req.Hops, Inner: inner}, nil
		}
		fwd := &routeRequest{Key: req.Key, Hops: req.Hops + 1, Inner: req.Inner}
		resp, err := n.net.Call(n.id, next, simnet.Message{
			Kind:    kindRoute,
			Size:    msgHeader + req.Inner.Size,
			Payload: fwd,
		})
		if err != nil {
			// Peer unreachable: drop it from local state and retry with
			// an alternative hop.
			n.forget(next)
			continue
		}
		reply, ok := resp.Payload.(*routeReply)
		if !ok {
			return nil, fmt.Errorf("dht: bad route reply %T", resp.Payload)
		}
		return reply, nil
	}
	return nil, fmt.Errorf("route %s from %s: %w", req.Key.Short(), n.id.Short(), ErrNoRoute)
}

// deliverLocal serves a message routed to this node, the key's root. Only
// the KV store routes; any other kind is an error.
func (n *Node) deliverLocal(key id.ID, msg simnet.Message) (simnet.Message, error) {
	if !isKVKind(msg.Kind) {
		return simnet.Message{}, fmt.Errorf("dht: node %s cannot deliver routed %q", n.id.Short(), msg.Kind)
	}
	return n.handleKV(key, msg)
}

// nextHop implements the Pastry routing decision (paper §3.2, routing
// table background): leaf set first, then prefix routing, then the rare
// case of any strictly closer known node. deliverHere is true when this
// node is the root for key.
func (n *Node) nextHop(key id.ID) (id.ID, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()

	leaves := n.allLeavesLocked()
	if len(leaves) == 0 {
		return id.Zero, true
	}

	// 1. Leaf set range: key within [furthest ccw, furthest cw].
	lo := n.id
	if len(n.leafCCW) > 0 {
		lo = n.leafCCW[len(n.leafCCW)-1]
	}
	hi := n.id
	if len(n.leafCW) > 0 {
		hi = n.leafCW[len(n.leafCW)-1]
	}
	if key == lo || id.BetweenRightIncl(key, lo, hi) {
		best := n.id
		for _, l := range leaves {
			if id.Closer(key, l, best) {
				best = l
			}
		}
		if best == n.id {
			return id.Zero, true
		}
		return best, false
	}

	// 2. Prefix routing. The entry must also be strictly closer to the key
	// in ring distance than we are: together with the leaf and rare cases
	// this makes every hop strictly decrease ring distance, so routing
	// provably terminates (plain Pastry can ping-pong across the digit
	// boundary where a longer shared prefix is numerically farther).
	row := id.CommonPrefixLen(key, n.id)
	if row < id.Digits {
		if e := n.rt[row][key.Digit(row)]; e != id.Zero && id.Closer(key, e, n.id) {
			return e, false
		}
	}

	// 3. Rare case: greedy — any known node strictly closer to the key
	// than we are (prefix length deliberately not required, so routing can
	// cross digit boundaries where the numerically nearest node shares a
	// shorter prefix).
	best := n.id
	consider := func(c id.ID) {
		if c == id.Zero || c == n.id {
			return
		}
		if id.Closer(key, c, best) {
			best = c
		}
	}
	for _, l := range leaves {
		consider(l)
	}
	for r := range n.rt {
		for col := range n.rt[r] {
			consider(n.rt[r][col])
		}
	}
	if best == n.id {
		return id.Zero, true
	}
	return best, false
}

// Lookup routes an empty probe and returns the root and hop count for key.
func (n *Node) Lookup(key id.ID) (id.ID, int, error) {
	_, root, hops, err := n.Route(key, simnet.Message{Kind: kindKVRoot, Size: msgHeader})
	return root, hops, err
}
