package shard

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"

	"sr3/internal/id"
	"sr3/internal/state"
)

var (
	testOwner = id.HashKey("owner")
	testV     = state.Version{Timestamp: 1, Seq: 1}
)

func mkData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestSplitReassembleRoundTrip(t *testing.T) {
	for _, m := range []int{1, 2, 3, 7, 16, 100} {
		data := mkData(10000, int64(m))
		shards, err := Split("app", testOwner, data, m, testV)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != m {
			t.Fatalf("m=%d produced %d shards", m, len(shards))
		}
		got, err := Reassemble(shards)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("m=%d round trip mismatch", m)
		}
	}
}

func TestSplitMoreShardsThanBytes(t *testing.T) {
	shards, err := Split("app", testOwner, []byte{1, 2, 3}, 10, testV)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("got %d shards, want clamp to 3", len(shards))
	}
}

func TestSplitEmptyState(t *testing.T) {
	shards, err := Split("app", testOwner, nil, 4, testV)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reassemble(shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestSplitRejectsBadCount(t *testing.T) {
	if _, err := Split("app", testOwner, []byte{1}, 0, testV); !errors.Is(err, ErrBadShardCount) {
		t.Fatalf("got %v", err)
	}
}

func TestReassembleFromMixedReplicas(t *testing.T) {
	data := mkData(5000, 3)
	shards, _ := Split("app", testOwner, data, 5, testV)
	reps, err := Replicate(shards, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Pick replica (i mod 3) of shard i — different sets reconstruct.
	var pick []Shard
	for _, s := range reps {
		if s.Replica == s.Index%3 {
			pick = append(pick, s)
		}
	}
	got, err := Reassemble(pick)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mixed-replica reassembly mismatch")
	}
}

func TestReassembleMissingShard(t *testing.T) {
	shards, _ := Split("app", testOwner, mkData(1000, 4), 4, testV)
	if _, err := Reassemble(shards[:3]); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("got %v", err)
	}
	if _, err := Reassemble(nil); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("empty: got %v", err)
	}
}

func TestReassembleDetectsCorruption(t *testing.T) {
	shards, _ := Split("app", testOwner, mkData(1000, 5), 4, testV)
	shards[2].Data[0] ^= 0xff
	if _, err := Reassemble(shards); !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v", err)
	}
}

func TestReassembleRejectsMixedStates(t *testing.T) {
	a, _ := Split("appA", testOwner, mkData(100, 6), 2, testV)
	b, _ := Split("appB", testOwner, mkData(100, 7), 2, testV)
	if _, err := Reassemble([]Shard{a[0], b[1]}); !errors.Is(err, ErrMixedState) {
		t.Fatalf("got %v", err)
	}
	// Same app, different version.
	c, _ := Split("appA", testOwner, mkData(100, 8), 2, state.Version{Timestamp: 9})
	if _, err := Reassemble([]Shard{a[0], c[1]}); !errors.Is(err, ErrMixedState) {
		t.Fatalf("versions: got %v", err)
	}
}

func TestReassembleDisagreeingReplicas(t *testing.T) {
	shards, _ := Split("app", testOwner, mkData(1000, 9), 2, testV)
	reps, _ := Replicate(shards, 2)
	// Corrupt one replica of index 0 but fix its checksum so only the
	// cross-replica comparison can catch it.
	for i := range reps {
		if reps[i].Index == 0 && reps[i].Replica == 1 {
			// Replicas share their bytes: the disagreeing one is a copy.
			reps[i].Data = append([]byte(nil), reps[i].Data...)
			reps[i].Data[0] ^= 0xff
			reps[i].Checksum = checksumOf(reps[i].Data)
		}
	}
	if _, err := Reassemble(reps); !errors.Is(err, ErrMixedState) {
		t.Fatalf("got %v", err)
	}
}

func checksumOf(b []byte) uint32 {
	s := Shard{Data: b}
	_ = s
	// crc32 of the data, via Verify's definition.
	return crcIEEE(b)
}

// TestSplitAndReplicateAliasTheSnapshot pins the one-buffer contract: a
// shard is a capacity-limited view of the snapshot it was split from, and
// the replicas of a shard are the same view.
func TestSplitAndReplicateAliasTheSnapshot(t *testing.T) {
	data := mkData(1001, 12)
	shards, err := Split("app", testOwner, data, 4, testV)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shards {
		if &s.Data[0] != &data[s.Offset] {
			t.Fatalf("shard %d is a copy, want a view of the snapshot at offset %d", s.Index, s.Offset)
		}
		if cap(s.Data) != len(s.Data) {
			t.Fatalf("shard %d: cap %d over len %d — an append would write into the next shard", s.Index, cap(s.Data), len(s.Data))
		}
		if s.Checksum != crcIEEE(data[s.Offset:s.Offset+len(s.Data)]) {
			t.Fatalf("shard %d: checksum does not cover its byte range", s.Index)
		}
	}
	reps, err := Replicate(shards, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		if &r.Data[0] != &shards[r.Index].Data[0] || len(r.Data) != len(shards[r.Index].Data) {
			t.Fatalf("replica %d of shard %d has its own bytes, want the shard's", r.Replica, r.Index)
		}
	}
}

func TestReplicateCounts(t *testing.T) {
	shards, _ := Split("app", testOwner, mkData(300, 10), 3, testV)
	reps, err := Replicate(shards, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 12 {
		t.Fatalf("got %d replicas", len(reps))
	}
	if _, err := Replicate(shards, 0); !errors.Is(err, ErrBadReplicas) {
		t.Fatalf("got %v", err)
	}
}

func TestSplitBytesMerge(t *testing.T) {
	f := func(data []byte, kRaw uint8) bool {
		k := int(kRaw%16) + 1
		parts := SplitBytes(data, k)
		got, err := MergeBytes(parts, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeBytesErrors(t *testing.T) {
	base := mkData(100, 5)
	cases := []struct {
		name  string
		parts func() [][]byte
		total int
	}{
		{"no parts", func() [][]byte { return nil }, 0},
		{"nil part mid-merge", func() [][]byte {
			p := SplitBytes(base, 4)
			p[2] = nil
			return p
		}, len(base)},
		{"truncated part", func() [][]byte {
			p := SplitBytes(base, 4)
			p[1] = p[1][:len(p[1])-3]
			return p
		}, len(base)},
		{"inflated part", func() [][]byte {
			p := SplitBytes(base, 4)
			p[0] = append(append([]byte(nil), p[0]...), 0xFF)
			return p
		}, len(base)},
		{"wrong total", func() [][]byte { return SplitBytes(base, 4) }, len(base) + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := MergeBytes(tc.parts(), tc.total); !errors.Is(err, ErrIncomplete) {
				t.Fatalf("got %v, want ErrIncomplete", err)
			}
		})
	}
}

func TestMergeBytesEdges(t *testing.T) {
	// m=1: a single part merges to itself.
	one := SplitBytes(mkData(17, 9), 1)
	if len(one) != 1 {
		t.Fatalf("k=1 produced %d parts", len(one))
	}
	got, err := MergeBytes(one, 17)
	if err != nil || !bytes.Equal(got, mkData(17, 9)) {
		t.Fatalf("m=1 merge: %v", err)
	}
	// Empty data: one empty non-nil chunk, merges back to empty.
	empty := SplitBytes(nil, 4)
	if len(empty) != 1 || empty[0] == nil {
		t.Fatalf("empty split: %#v", empty)
	}
	if got, err := MergeBytes(empty, 0); err != nil || len(got) != 0 {
		t.Fatalf("empty merge: %v (%d bytes)", err, len(got))
	}
	// total < 0 skips the length check but still rejects nil parts.
	p := SplitBytes(base16(), 3)
	if _, err := MergeBytes(p, -1); err != nil {
		t.Fatalf("total<0: %v", err)
	}
	p[0] = nil
	if _, err := MergeBytes(p, -1); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("total<0 nil part: got %v", err)
	}
}

func base16() []byte { return mkData(16, 3) }

func TestPlaceDistinctReplicaNodes(t *testing.T) {
	nodes := make([]id.ID, 10)
	for i := range nodes {
		nodes[i] = id.HashKey(string(rune('a' + i)))
	}
	p, err := Place("app", testOwner, 8, 3, testV, 1000, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		hs := p.NodesForIndex(i)
		if len(hs) != 3 {
			t.Fatalf("index %d has %d holders", i, len(hs))
		}
		seen := make(map[id.ID]bool)
		for _, h := range hs {
			if seen[h] {
				t.Fatalf("index %d replicas share node %s", i, h.Short())
			}
			seen[h] = true
		}
	}
}

func TestPlaceLoadSpread(t *testing.T) {
	nodes := make([]id.ID, 12)
	for i := range nodes {
		nodes[i] = id.HashKey(string(rune('a' + i)))
	}
	p, err := Place("app", testOwner, 24, 2, testV, 1000, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, nid := range nodes {
		n := len(p.KeysOnNode(nid))
		if n != 4 { // 48 replicas / 12 nodes
			t.Fatalf("node %s holds %d shards, want 4", nid.Short(), n)
		}
	}
	if len(p.Holders()) != 12 {
		t.Fatalf("holders = %d", len(p.Holders()))
	}
}

func TestPlaceNotEnoughNodes(t *testing.T) {
	nodes := []id.ID{id.HashKey("only")}
	if _, err := Place("app", testOwner, 2, 2, testV, 10, nodes); !errors.Is(err, ErrNotEnoughNodes) {
		t.Fatalf("got %v", err)
	}
}

// crcIEEE is a test helper mirroring Shard.Verify's checksum.
func crcIEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
