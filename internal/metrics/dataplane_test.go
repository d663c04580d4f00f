package metrics

import "testing"

func TestDataPlaneGoodput(t *testing.T) {
	s := DataPlaneStats{BytesMoved: 64_000_000, Seconds: 2}
	if got := s.GoodputMBps(); got != 32 {
		t.Fatalf("goodput %v, want 32", got)
	}
	if got := (DataPlaneStats{BytesMoved: 100}).GoodputMBps(); got != 0 {
		t.Fatalf("zero-duration goodput %v", got)
	}
	if got := (DataPlaneStats{Seconds: -1, BytesMoved: 100}).GoodputMBps(); got != 0 {
		t.Fatalf("negative-duration goodput %v", got)
	}
}

func TestDataPlanePoolHitRate(t *testing.T) {
	if got := (DataPlaneStats{}).PoolHitRate(); got != 0 {
		t.Fatalf("empty rate %v", got)
	}
	s := DataPlaneStats{PoolHits: 9, PoolMisses: 3}
	if got := s.PoolHitRate(); got != 0.75 {
		t.Fatalf("rate %v", got)
	}
}
