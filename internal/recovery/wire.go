package recovery

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"

	"sr3/internal/dht"
	"sr3/internal/id"
	"sr3/internal/shard"
	"sr3/internal/state"
)

// RegisterWire registers the recovery layer's message payloads with gob
// so shard saving and the three recovery mechanisms run over serializing
// transports (internal/nettransport).
func RegisterWire() {
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

// A placement blob is read on every save by every node it is published to
// (the publication notice, internal/cluster) and by every recovery, so it
// is a fixed binary layout, not gob — whose decoder compiles the type
// tree afresh for every blob, ≈ 30 µs and 260 allocations for a 4×2 table
// against well under a microsecond here:
//
//	placementMagic · app (uvarint length, bytes) · owner (id.Bytes) ·
//	M · R · version timestamp (varint) · version seq · total length ·
//	epoch (uvarints) · M×R node IDs in (index, replica) order, id.Zero
//	for a slot the table leaves unassigned
const placementMagic = 0xA7

// EncodePlacement serializes a placement table for the DHT KV. A table
// with a key outside its own app or M×R grid has no encoding.
func EncodePlacement(p shard.Placement) ([]byte, error) {
	if p.M < 0 || p.R < 0 || p.M > maxShardCount || p.R > maxReplicaCount {
		return nil, fmt.Errorf("encode placement: %w: %d×%d shards", ErrMalformed, p.M, p.R)
	}
	buf := make([]byte, 0, 64+len(p.App)+p.M*p.R*id.Bytes)
	buf = append(buf, placementMagic)
	buf = binary.AppendUvarint(buf, uint64(len(p.App)))
	buf = append(buf, p.App...)
	buf = append(buf, p.Owner[:]...)
	buf = binary.AppendUvarint(buf, uint64(p.M))
	buf = binary.AppendUvarint(buf, uint64(p.R))
	buf = binary.AppendVarint(buf, p.Version.Timestamp)
	buf = binary.AppendUvarint(buf, p.Version.Seq)
	buf = binary.AppendUvarint(buf, uint64(p.TotalLen))
	buf = binary.AppendUvarint(buf, p.Epoch)
	placed := 0
	for i := 0; i < p.M; i++ {
		for j := 0; j < p.R; j++ {
			nid, ok := p.Loc[shard.Key{App: p.App, Index: i, Replica: j}]
			if ok {
				placed++
			}
			buf = append(buf, nid[:]...)
		}
	}
	if placed != len(p.Loc) {
		return nil, fmt.Errorf("encode placement: %w: %d of %d locations lie outside the %d×%d table of %q",
			ErrMalformed, len(p.Loc)-placed, len(p.Loc), p.M, p.R, truncate(p.App))
	}
	return buf, nil
}

// DecodePlacement deserializes and validates a placement blob fetched
// from the DHT KV. The validation is what makes a poisoned or corrupted
// blob an error instead of a panic (or an unbounded loop over a claimed
// shard count) during recovery.
func DecodePlacement(b []byte) (shard.Placement, error) {
	bad := func(what string) (shard.Placement, error) {
		return shard.Placement{}, fmt.Errorf("decode placement: %w: %s", ErrMalformed, what)
	}
	if len(b) == 0 || b[0] != placementMagic {
		return bad("not a placement blob")
	}
	rest := b[1:]
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	var p shard.Placement
	appLen, ok := uvarint()
	if !ok || appLen > maxAppNameLen || appLen > uint64(len(rest)) {
		return bad("app name")
	}
	p.App, rest = string(rest[:appLen]), rest[appLen:]
	if len(rest) < id.Bytes {
		return bad("owner")
	}
	copy(p.Owner[:], rest)
	rest = rest[id.Bytes:]
	m, okM := uvarint()
	r, okR := uvarint()
	ts, n := binary.Varint(rest)
	if !okM || !okR || n <= 0 || m > maxShardCount || r > maxReplicaCount {
		return bad("geometry")
	}
	rest = rest[n:]
	seq, okSeq := uvarint()
	total, okTotal := uvarint()
	epoch, okEpoch := uvarint()
	if !okSeq || !okTotal || !okEpoch || total > maxStateLen {
		return bad("version, length or epoch")
	}
	p.M, p.R, p.TotalLen, p.Epoch = int(m), int(r), int(total), epoch
	p.Version = state.Version{Timestamp: ts, Seq: seq}
	// The table must be exactly as long as its geometry says before
	// anything is sized by that geometry.
	if uint64(len(rest)) != m*r*id.Bytes {
		return bad(fmt.Sprintf("%d table bytes for %d×%d shards", len(rest), m, r))
	}
	p.Loc = make(map[shard.Key]id.ID, p.M*p.R)
	for i := 0; i < p.M; i++ {
		for j := 0; j < p.R; j++ {
			var nid id.ID
			copy(nid[:], rest)
			rest = rest[id.Bytes:]
			if nid != id.Zero {
				p.Loc[shard.Key{App: p.App, Index: i, Replica: j}] = nid
			}
		}
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
// round trip. The sender never builds that body: it hands the transport
// the frames as segments — a length prefix, then the shard's own bytes —
// which a serializing transport writes vectored (internal/nettransport).
// The receiver reads the body into one buffer, and decoding is subslicing
// rather than copying.

// maxBatchShards caps the number of shards one batch may claim.
const maxBatchShards = maxShardCount

// shardBatchSegs strips the shards' data into the segments of a framed raw
// body (simnet.Message.RawSegs) — every length prefix a slice of one small
// array, every body the shard's Data itself — and returns the data-free
// metas alongside them plus the body's length. The metas' order matches the
// frame order.
func shardBatchSegs(shards []shard.Shard) (metas []shard.Shard, segs [][]byte, total int) {
	metas = make([]shard.Shard, len(shards))
	segs = make([][]byte, 0, 2*len(shards))
	hdrs := make([]byte, 0, dht.FrameOverhead*len(shards))
	for i, s := range shards {
		hdrs = dht.AppendFrameHeader(hdrs, len(s.Data))
		segs = append(segs, hdrs[len(hdrs)-dht.FrameOverhead:], s.Data)
		total += dht.FrameOverhead + len(s.Data)
		s.Data = nil
		metas[i] = s
	}
	return metas, segs, total
}

// DecodeShardBatch reattaches a framed raw body to its metas and
// validates every shard (geometry and checksum — a frame corrupted or
// truncated mid-stream fails here, not during reassembly). The returned
// shards' Data subslice raw: a caller that keeps them keeps raw.
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
