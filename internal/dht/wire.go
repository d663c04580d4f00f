package dht

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"

	"sr3/internal/id"
	"sr3/internal/simnet"
)

// RegisterWire registers the DHT's message payload types with gob so the
// overlay can run over a serializing transport (internal/nettransport).
// Call once per process before creating nodes on such a transport; it is
// unnecessary (but harmless) for the in-process simnet transport.
func RegisterWire() {
	gob.Register(&joinRequest{})
	gob.Register(&joinReply{})
	gob.Register(&announceRequest{})
	gob.Register(&leafsetReply{})
	gob.Register(&routeRequest{})
	gob.Register(&routeReply{})
	gob.Register(&kvPutRequest{})
	gob.Register(&kvGetRequest{})
	gob.Register(&kvReply{})
	gob.Register(&kvAllReply{})
}

// ErrMalformed reports a structurally invalid wire payload: a message a
// correct peer would never produce. Handlers reject it without panicking,
// so hostile or corrupted frames cannot take a node down.
var ErrMalformed = errors.New("dht: malformed wire payload")

// Structural caps for inbound payloads. Generous relative to anything a
// correct peer produces, tight relative to what a hostile frame could
// claim (amplification via huge entry lists, unbounded route nesting).
const (
	maxWireEntries  = 4096
	maxKVKeyLen     = 4096
	maxKVValueLen   = 64 << 20
	maxRouteHops    = 1024
	maxRouteNesting = 4
)

// MaxFrameLen caps one length-prefixed frame (see AppendFrame): large
// enough for any shard this system ships, small enough that a hostile
// prefix cannot demand an absurd allocation or subslice.
const MaxFrameLen = 1 << 30

// ErrBadFrame reports a structurally invalid length-prefixed frame.
var ErrBadFrame = errors.New("dht: malformed length-prefixed frame")

// AppendFrame appends b to dst as one length-prefixed frame
// ([u32 big-endian length][bytes]). It is the batched data-plane
// encoding: concatenated frames let one message carry many bodies with
// zero per-item gob overhead, and decoding is subslicing, not copying.
func AppendFrame(dst, b []byte) []byte {
	return append(AppendFrameHeader(dst, len(b)), b...)
}

// AppendFrameHeader appends only the length prefix of an n-byte frame, for
// a sender that hands the body to a vectored write instead of copying it
// behind the prefix.
func AppendFrameHeader(dst []byte, n int) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// NextFrame splits the first length-prefixed frame off b, returning the
// frame body (a subslice of b, no copy) and the remainder. A truncated
// or oversized prefix yields ErrBadFrame.
func NextFrame(b []byte) (frame, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("%w: %d-byte header", ErrBadFrame, len(b))
	}
	n := binary.BigEndian.Uint32(b)
	if n > MaxFrameLen {
		return nil, nil, fmt.Errorf("%w: claimed length %d", ErrBadFrame, n)
	}
	if int(n) > len(b)-4 {
		return nil, nil, fmt.Errorf("%w: claimed %d bytes, have %d", ErrBadFrame, n, len(b)-4)
	}
	return b[4 : 4+n : 4+n], b[4+n:], nil
}

// FrameOverhead is the per-frame encoding overhead of AppendFrame.
const FrameOverhead = 4

// EncodePayload serializes one registered wire payload (interface-encoded
// gob, the same framing a serializing transport applies).
func EncodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, fmt.Errorf("dht: encode payload: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePayload deserializes one wire payload and structurally validates
// it. Every known payload type is checked against the wire caps; unknown
// types and undecodable bytes are rejected. This is the fuzzing surface
// guaranteeing malformed frames cannot panic a node.
func DecodePayload(b []byte) (any, error) {
	var v any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return nil, fmt.Errorf("dht: decode payload: %w", err)
	}
	if err := validatePayload(v, 0); err != nil {
		return nil, err
	}
	return v, nil
}

// validateInbound checks one inbound message's payload before dispatch.
// A nil payload is allowed (ping and other bare messages).
func validateInbound(msg simnet.Message) error {
	if msg.Payload == nil {
		return nil
	}
	return validatePayload(msg.Payload, 0)
}

// validatePayload structurally validates one known payload. depth guards
// against unbounded route-in-route nesting.
func validatePayload(v any, depth int) error {
	switch p := v.(type) {
	case *joinRequest:
		if p == nil || p.Hops < 0 || p.Hops > maxRouteHops || len(p.Rows) > maxWireEntries {
			return fmt.Errorf("%w: join request", ErrMalformed)
		}
		for _, row := range p.Rows {
			if row.Row < 0 || row.Row >= id.Digits || len(row.Entries) > id.Base+1 {
				return fmt.Errorf("%w: join row %d", ErrMalformed, row.Row)
			}
		}
	case *joinReply:
		if p == nil || len(p.Rows) > maxWireEntries || len(p.Leaves) > maxWireEntries {
			return fmt.Errorf("%w: join reply", ErrMalformed)
		}
		for _, row := range p.Rows {
			if row.Row < 0 || row.Row >= id.Digits || len(row.Entries) > id.Base+1 {
				return fmt.Errorf("%w: join reply row %d", ErrMalformed, row.Row)
			}
		}
	case *announceRequest:
		if p == nil {
			return fmt.Errorf("%w: announce", ErrMalformed)
		}
	case *leafsetReply:
		if p == nil || len(p.Leaves) > maxWireEntries {
			return fmt.Errorf("%w: leafset reply", ErrMalformed)
		}
	case *routeRequest:
		if p == nil || p.Hops < 0 || p.Hops > maxRouteHops {
			return fmt.Errorf("%w: route request", ErrMalformed)
		}
		if depth >= maxRouteNesting {
			return fmt.Errorf("%w: route nesting exceeds %d", ErrMalformed, maxRouteNesting)
		}
		if p.Inner.Payload != nil {
			return validatePayload(p.Inner.Payload, depth+1)
		}
	case *routeReply:
		if p == nil || p.Hops < 0 || p.Hops > maxRouteHops {
			return fmt.Errorf("%w: route reply", ErrMalformed)
		}
		if depth >= maxRouteNesting {
			return fmt.Errorf("%w: route nesting exceeds %d", ErrMalformed, maxRouteNesting)
		}
		if p.Inner.Payload != nil {
			return validatePayload(p.Inner.Payload, depth+1)
		}
	case *kvPutRequest:
		if p == nil || len(p.Key) == 0 || len(p.Key) > maxKVKeyLen || len(p.Value) > maxKVValueLen {
			return fmt.Errorf("%w: kv put", ErrMalformed)
		}
	case *kvGetRequest:
		if p == nil || len(p.Key) == 0 || len(p.Key) > maxKVKeyLen {
			return fmt.Errorf("%w: kv get", ErrMalformed)
		}
	case *kvReply:
		if p == nil || len(p.Value) > maxKVValueLen {
			return fmt.Errorf("%w: kv reply", ErrMalformed)
		}
	default:
		// Not a DHT payload: upper layers (recovery, Scribe, detector)
		// validate their own types in their handlers.
	}
	return nil
}
