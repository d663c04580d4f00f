package metrics

// SelfHealStats aggregates the self-healing pipeline's timing samples
// across many induced failures: detection latency (kill → verdict at the
// supervisor) and MTTR (kill → replication restored to r). The package
// stays free of internal imports, so samples arrive as plain milliseconds.
type SelfHealStats struct {
	DetectionMs []float64
	MTTRMs      []float64
	// Failures counts induced deaths that produced no successful
	// recovery event (supervision gap — must stay 0 in a healthy run).
	Failures int
}

// AddSample folds one handled death into the aggregate.
func (s *SelfHealStats) AddSample(detectionMs, mttrMs float64) {
	s.DetectionMs = append(s.DetectionMs, detectionMs)
	s.MTTRMs = append(s.MTTRMs, mttrMs)
}

// AddFailure records an induced death the supervisor never healed.
func (s *SelfHealStats) AddFailure() { s.Failures++ }

// Samples returns how many healed deaths were aggregated.
func (s SelfHealStats) Samples() int { return len(s.MTTRMs) }

// summarize returns (mean, p50, p99, max) for one series, zeros when empty.
func summarize(xs []float64) (mean, p50, p99, max float64) {
	if len(xs) == 0 {
		return 0, 0, 0, 0
	}
	mean, _ = Mean(xs)
	p50, _ = Percentile(xs, 50)
	p99, _ = Percentile(xs, 99)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return mean, p50, p99, max
}

// DetectionSummary returns (mean, p50, p99, max) detection latency in ms.
func (s SelfHealStats) DetectionSummary() (mean, p50, p99, max float64) {
	return summarize(s.DetectionMs)
}

// MTTRSummary returns (mean, p50, p99, max) kill→reprotected time in ms.
func (s SelfHealStats) MTTRSummary() (mean, p50, p99, max float64) {
	return summarize(s.MTTRMs)
}
