package recovery

import (
	"bytes"
	"testing"

	"sr3/internal/id"
	"sr3/internal/shard"
	"sr3/internal/state"
)

// FuzzDecodePlacement drives arbitrary bytes through the placement
// decoder: whatever a hostile node wrote into the DHT KV, DecodePlacement
// must either reject it or return a placement that passes validation —
// and never panic.
func FuzzDecodePlacement(f *testing.F) {
	owner := id.HashKey("owner")
	holder := id.HashKey("holder")
	p, err := shard.Place("app", owner, 4, 2, state.Version{Timestamp: 7, Seq: 3}, 4096,
		[]id.ID{owner, holder, id.HashKey("third")})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := EncodePlacement(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte{0x03, 0xff, 0x81})

	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodePlacement(b)
		if err != nil {
			return
		}
		if err := ValidatePlacement(got); err != nil {
			t.Fatalf("DecodePlacement returned invalid placement: %v", err)
		}
		// Decoded placements must round-trip.
		if _, err := EncodePlacement(got); err != nil {
			t.Fatalf("re-encode of decoded placement failed: %v", err)
		}
	})
}

// encodeShardBatch is the body a holder reads for shards: the segments a
// pusher hands its transport, joined as a wire joins them.
func encodeShardBatch(shards []shard.Shard) (metas []shard.Shard, raw []byte) {
	metas, segs, total := shardBatchSegs(shards)
	raw = bytes.Join(segs, nil)
	if len(raw) != total {
		panic("shardBatchSegs: total does not match the segments")
	}
	return metas, raw
}

// FuzzDecodeShard drives one shard with arbitrary metadata and data
// through the batch decoder, as a hostile pusher would send it: a decoded
// shard must be structurally valid (geometry inside the claimed state,
// checksum matching) or rejected, and decoding must never panic.
func FuzzDecodeShard(f *testing.F) {
	shards, err := shard.Split("app", id.HashKey("owner"), []byte("some snapshot bytes for splitting"), 3,
		state.Version{Timestamp: 9, Seq: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range shards {
		f.Add(s.App, s.Index, s.Replica, s.Total, s.Offset, s.TotalLen, s.Checksum, s.Data)
	}
	f.Add("", 0, 0, 0, 0, 0, uint32(0), []byte{})
	f.Add("app", 7, -1, 3, 1<<40, 13, uint32(0x42), []byte{0x42, 0x00, 0x13})

	f.Fuzz(func(t *testing.T, app string, index, replica, total, offset, totalLen int, sum uint32, data []byte) {
		meta := shard.Shard{App: app, Index: index, Replica: replica, Total: total,
			Offset: offset, TotalLen: totalLen, Checksum: sum, Data: data}
		metas, raw := encodeShardBatch([]shard.Shard{meta})
		got, err := DecodeShardBatch(metas, raw)
		if err != nil {
			return
		}
		if err := ValidateShard(got[0]); err != nil {
			t.Fatalf("DecodeShardBatch returned invalid shard: %v", err)
		}
		if got[0].Offset+len(got[0].Data) > got[0].TotalLen {
			t.Fatalf("decoded shard range escapes state: off=%d len=%d total=%d", got[0].Offset, len(got[0].Data), got[0].TotalLen)
		}
	})
}

// FuzzDecodeShardBatch drives arbitrary raw bodies through the batch
// decoder against a fixed set of valid metas: truncated, corrupted or
// trailing-garbage bodies must be rejected (never panic, never loop on a
// claimed length), and an accepted batch must reproduce the encoded data
// exactly.
func FuzzDecodeShardBatch(f *testing.F) {
	shards, err := shard.Split("app", id.HashKey("owner"), bytes.Repeat([]byte("wire body "), 40), 4,
		state.Version{Timestamp: 11, Seq: 2})
	if err != nil {
		f.Fatal(err)
	}
	metas, raw := encodeShardBatch(shards)
	f.Add(raw)
	f.Add(raw[:len(raw)-3])                       // truncated final frame
	f.Add(append(raw[:0:0], raw...)[:len(raw)/2]) // truncated mid-stream
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})            // absurd frame length
	f.Add(append(append([]byte(nil), raw...), 0x00)) // trailing byte

	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeShardBatch(metas, body)
		if err != nil {
			return
		}
		// Accepted ⇒ every shard checksums out and matches the original
		// split byte for byte (the metas pin identity and checksum, so
		// only the true body can pass).
		if len(got) != len(shards) {
			t.Fatalf("accepted batch of %d shards, want %d", len(got), len(shards))
		}
		for i := range got {
			if err := ValidateShard(got[i]); err != nil {
				t.Fatalf("accepted invalid shard %d: %v", i, err)
			}
			if !bytes.Equal(got[i].Data, shards[i].Data) {
				t.Fatalf("accepted shard %d with different data", i)
			}
		}
	})
}
