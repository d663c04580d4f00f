package recovery

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/shard"
)

// RegisterWire registers the recovery layer's message payloads with gob
// so shard saving and the three recovery mechanisms run over serializing
// transports (internal/nettransport).
func RegisterWire() {
	gob.Register(&shard.Shard{})
	gob.Register(&fetchIndexRequest{})
	gob.Register(&fetchReply{})
	gob.Register(&lineCollectMsg{})
	gob.Register(&collectReply{})
	gob.Register(&treeCollectMsg{})
	gob.Register(&storeBatchMsg{})
}

// ErrMalformed reports a structurally invalid recovery payload — one no
// correct peer would produce. Handlers reject it with an error instead of
// trusting its claimed geometry.
var ErrMalformed = errors.New("recovery: malformed wire payload")

// Structural caps. Placement blobs come out of the DHT KV (any node can
// write there) and shards arrive from arbitrary peers, so both are
// validated against these before any field is used for indexing, loops
// or allocation.
const (
	maxAppNameLen   = 256
	maxShardCount   = 1 << 16
	maxReplicaCount = 256
	maxStateLen     = 1 << 36 // 64 GiB: far above any snapshot this system handles
)

// EncodePlacement serializes a placement table for the DHT KV.
func EncodePlacement(p shard.Placement) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("encode placement: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePlacement deserializes and validates a placement blob fetched
// from the DHT KV. The validation is what makes a poisoned or corrupted
// blob an error instead of a panic (or an unbounded loop over a claimed
// shard count) during recovery.
func DecodePlacement(b []byte) (shard.Placement, error) {
	var p shard.Placement
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&p); err != nil {
		return shard.Placement{}, fmt.Errorf("decode placement: %w", err)
	}
	if err := ValidatePlacement(p); err != nil {
		return shard.Placement{}, err
	}
	return p, nil
}

// ValidatePlacement structurally checks a placement table.
func ValidatePlacement(p shard.Placement) error {
	if p.App == "" || len(p.App) > maxAppNameLen {
		return fmt.Errorf("%w: placement app %q", ErrMalformed, truncate(p.App))
	}
	if p.M < 1 || p.M > maxShardCount {
		return fmt.Errorf("%w: placement m=%d", ErrMalformed, p.M)
	}
	if p.R < 1 || p.R > maxReplicaCount {
		return fmt.Errorf("%w: placement r=%d", ErrMalformed, p.R)
	}
	if p.TotalLen < 0 || p.TotalLen > maxStateLen {
		return fmt.Errorf("%w: placement totalLen=%d", ErrMalformed, p.TotalLen)
	}
	if len(p.Loc) > p.M*p.R {
		return fmt.Errorf("%w: placement has %d locations for %d×%d shards", ErrMalformed, len(p.Loc), p.M, p.R)
	}
	for k, nid := range p.Loc {
		if k.App != p.App || k.Index < 0 || k.Index >= p.M || k.Replica < 0 || k.Replica >= p.R {
			return fmt.Errorf("%w: placement key %v", ErrMalformed, k)
		}
		if nid == id.Zero {
			return fmt.Errorf("%w: placement key %v at zero node", ErrMalformed, k)
		}
	}
	return nil
}

// --- batched shard framing (the data plane) ---
//
// Shard payloads travel split in two: gob-encoded metadata (identity,
// geometry, checksum — Data nil) and a single raw byte body holding every
// shard's data as concatenated length-prefixed frames (dht.AppendFrame).
// One message therefore carries any number of shards with no per-shard
// round trip, serializing transports stream the body in chunk frames
// through pooled buffers (internal/nettransport), and decoding is
// subslicing rather than copying.

// maxBatchShards caps the number of shards one batch may claim.
const maxBatchShards = maxShardCount

// EncodeShardBatch strips the shards' data into a single framed raw body,
// appending to raw (which may be nil), and returns the data-free metas
// alongside it. The metas' order matches the frame order.
func EncodeShardBatch(shards []shard.Shard, raw []byte) ([]shard.Shard, []byte) {
	metas := make([]shard.Shard, len(shards))
	for i, s := range shards {
		raw = dht.AppendFrame(raw, s.Data)
		s.Data = nil
		metas[i] = s
	}
	return metas, raw
}

// DecodeShardBatch reattaches a framed raw body to its metas and
// validates every shard (geometry and checksum — a frame corrupted or
// truncated mid-stream fails here, not during reassembly). The returned
// shards' Data subslice raw: callers either consume them before releasing
// the transport buffer or copy.
func DecodeShardBatch(metas []shard.Shard, raw []byte) ([]shard.Shard, error) {
	if len(metas) > maxBatchShards {
		return nil, fmt.Errorf("%w: batch of %d shards", ErrMalformed, len(metas))
	}
	out := make([]shard.Shard, len(metas))
	rest := raw
	for i, meta := range metas {
		var frame []byte
		var err error
		frame, rest, err = dht.NextFrame(rest)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d/%d: %v", ErrMalformed, i, len(metas), err)
		}
		meta.Data = frame
		if err := ValidateShard(meta); err != nil {
			return nil, err
		}
		out[i] = meta
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d shards", ErrMalformed, len(rest), len(metas))
	}
	return out, nil
}

// EncodeShard serializes one shard (the store-message framing).
func EncodeShard(s shard.Shard) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("encode shard: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeShard deserializes and validates one shard.
func DecodeShard(b []byte) (shard.Shard, error) {
	var s shard.Shard
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&s); err != nil {
		return shard.Shard{}, fmt.Errorf("decode shard: %w", err)
	}
	if err := ValidateShard(s); err != nil {
		return shard.Shard{}, err
	}
	return s, nil
}

// ValidateShard structurally checks an inbound shard: identity, geometry
// (its byte range must fit the claimed state length) and checksum. Store
// handlers run this before accepting a replica, so a hostile shard can
// neither corrupt reassembly nor claim absurd sizes.
func ValidateShard(s shard.Shard) error {
	if s.App == "" || len(s.App) > maxAppNameLen {
		return fmt.Errorf("%w: shard app %q", ErrMalformed, truncate(s.App))
	}
	if s.Total < 1 || s.Total > maxShardCount {
		return fmt.Errorf("%w: shard total=%d", ErrMalformed, s.Total)
	}
	if s.Index < 0 || s.Index >= s.Total {
		return fmt.Errorf("%w: shard index %d of %d", ErrMalformed, s.Index, s.Total)
	}
	if s.Replica < 0 || s.Replica >= maxReplicaCount {
		return fmt.Errorf("%w: shard replica=%d", ErrMalformed, s.Replica)
	}
	if s.TotalLen < 0 || s.TotalLen > maxStateLen {
		return fmt.Errorf("%w: shard totalLen=%d", ErrMalformed, s.TotalLen)
	}
	if s.Offset < 0 || s.Offset+len(s.Data) > s.TotalLen {
		return fmt.Errorf("%w: shard range [%d,%d) outside state of %d bytes", ErrMalformed, s.Offset, s.Offset+len(s.Data), s.TotalLen)
	}
	if err := s.Verify(); err != nil {
		return fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	return nil
}

func truncate(s string) string {
	if len(s) > 64 {
		return s[:64] + "…"
	}
	return s
}
