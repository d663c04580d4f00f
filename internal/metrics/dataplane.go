package metrics

// DataPlaneStats aggregates one recovery run's data-plane activity: how
// many bytes of state actually moved, how long the run took, how wide the
// fetch pipeline ran, and how well the transport's buffer pool recycled.
// The bench harness fills one per (size, mechanism, concurrency) cell and
// derives goodput from it; transports report the raw counters, this type
// owns the arithmetic.
type DataPlaneStats struct {
	// BytesMoved is the state payload delivered to the replacement
	// (merged shard bytes, not wire overhead).
	BytesMoved int64
	// Seconds is the wall-clock duration of the run.
	Seconds float64
	// FetchConcurrency is the configured provider-fetch pool width.
	FetchConcurrency int
	// PoolHits / PoolMisses are the transport buffer pool's counters over
	// the run (deltas, when the transport is shared across runs).
	PoolHits   int64
	PoolMisses int64
}

// GoodputMBps returns delivered state megabytes per second (1 MB = 1e6
// bytes, matching the paper's axis units), or 0 for an empty run.
func (s DataPlaneStats) GoodputMBps() float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return float64(s.BytesMoved) / 1e6 / s.Seconds
}

// PoolHitRate returns hits/(hits+misses), or 0 with no pool traffic.
func (s DataPlaneStats) PoolHitRate() float64 {
	total := s.PoolHits + s.PoolMisses
	if total == 0 {
		return 0
	}
	return float64(s.PoolHits) / float64(total)
}
