package recovery

import (
	"fmt"
	"testing"

	"sr3/internal/id"
	"sr3/internal/shard"
	"sr3/internal/state"
)

// Wire-encoding microbenchmarks of the framed batch path: one message,
// the shards' own bytes handed over as segments, data subsliced on decode.

func benchShards(b *testing.B, size, m int) []shard.Shard {
	b.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	shards, err := shard.Split("app", id.HashKey("bench"), data, m, state.Version{Timestamp: 1, Seq: 1})
	if err != nil {
		b.Fatal(err)
	}
	return shards
}

func BenchmarkShardBatchSegs(b *testing.B) {
	for _, size := range []int{1 << 20, 16 << 20} {
		shards := benchShards(b, size, 8)
		b.Run(fmt.Sprintf("size=%dMiB", size>>20), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, total := shardBatchSegs(shards, nil, nil); total == 0 {
					b.Fatal("empty batch")
				}
			}
		})
	}
}

func BenchmarkDecodeShardBatch(b *testing.B) {
	for _, size := range []int{1 << 20, 16 << 20} {
		shards := benchShards(b, size, 8)
		metas, raw := encodeShardBatch(shards)
		b.Run(fmt.Sprintf("size=%dMiB", size>>20), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeShardBatch(metas, raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAssemblerAdd measures the replacement-side merge floor: m
// shards validated (checksum) and kept as the view's segments.
func BenchmarkAssemblerAdd(b *testing.B) {
	for _, size := range []int{1 << 20, 16 << 20} {
		shards := benchShards(b, size, 8)
		p := shard.Placement{
			App: "app", Owner: id.HashKey("bench"), M: 8, R: 1,
			Version: state.Version{Timestamp: 1, Seq: 1}, TotalLen: size,
		}
		b.Run(fmt.Sprintf("size=%dMiB", size>>20), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := newAssembler(p)
				for _, s := range shards {
					if _, err := a.add([]shard.Shard{s}, nil); err != nil {
						b.Fatal(err)
					}
				}
				got, err := a.view()
				if err != nil || got.Len != size {
					b.Fatalf("assemble: %v (%d bytes)", err, got.Len)
				}
				got.Release()
			}
		})
	}
}
