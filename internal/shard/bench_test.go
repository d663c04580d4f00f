package shard

import (
	"fmt"
	"testing"

	"sr3/internal/id"
	"sr3/internal/state"
)

// Data-plane microbenchmark: Split is the save path's hot loop.
// Allocation counts matter as much as time here.

func BenchmarkSplit(b *testing.B) {
	owner := id.HashKey("bench-owner")
	v := state.Version{Timestamp: 1, Seq: 1}
	for _, size := range []int{1 << 20, 16 << 20} {
		for _, m := range []int{8, 64} {
			b.Run(fmt.Sprintf("size=%dMiB/m=%d", size>>20, m), func(b *testing.B) {
				data := mkData(size, 42)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Split("app", owner, data, m, v); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
