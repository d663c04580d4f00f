// Package overload holds the recovery pipeline's retry budget: a
// token bucket that caps the *global* retry rate of recovery's failover
// ladder and the supervisor's per-verdict retry loop, so retry storms
// cannot amplify a gray failure into a cascade. It is the one retry
// budget in the system; admission and shedding live in the stream
// runtime's task queue and degraded mode.
//
// The budget is deliberately tiny and clock-injectable: it sits on every
// recovery failover pass and in deterministic tests.
package overload

import (
	"sync"
	"time"
)

// BudgetPolicy tunes a retry budget. The semantics follow the
// production pattern (gRPC/Envoy retry budgets): retries are funded by
// successes — each successful first attempt earns Ratio tokens — plus a
// small time-based floor so a fully failed system can still probe. A
// retry spends one token; with the bucket empty the retry is suppressed
// and the caller fails fast instead of joining the storm.
type BudgetPolicy struct {
	// Ratio is how many retry tokens one successful call earns
	// (default 0.1: at most ~10% retry amplification at steady state).
	Ratio float64
	// MinPerSec is the time-based refill floor in tokens/second
	// (default 2): even with zero successes, a trickle of probes
	// survives so the budget cannot deadlock recovery entirely.
	MinPerSec float64
	// Burst caps the accumulated tokens (default 10) so an idle period
	// does not bank an unbounded retry allowance.
	Burst float64
}

func (p BudgetPolicy) withDefaults() BudgetPolicy {
	if p.Ratio <= 0 {
		p.Ratio = 0.1
	}
	if p.MinPerSec <= 0 {
		p.MinPerSec = 2
	}
	if p.Burst <= 0 {
		p.Burst = 10
	}
	return p
}

// Budget is a concurrency-safe token-bucket retry budget. The zero
// value is not usable; construct with NewBudget.
type Budget struct {
	mu        sync.Mutex
	pol       BudgetPolicy
	tokens    float64
	last      time.Time
	now       func() time.Time
	spent     int64 // retries funded
	suppress  int64 // retries suppressed (bucket empty)
	successes int64 // earns recorded
}

// NewBudget returns a budget under the policy, starting with a full
// burst allowance (a cold start should not suppress the first failover).
func NewBudget(pol BudgetPolicy) *Budget {
	pol = pol.withDefaults()
	b := &Budget{pol: pol, tokens: pol.Burst, now: time.Now}
	b.last = b.now()
	return b
}

// SetClock injects a deterministic clock (tests). Not safe to call
// concurrently with Allow/Earn.
func (b *Budget) SetClock(now func() time.Time) {
	b.now = now
	b.last = now()
}

// refillLocked applies the time-based floor since the last touch.
func (b *Budget) refillLocked() {
	t := b.now()
	dt := t.Sub(b.last).Seconds()
	if dt > 0 {
		b.tokens += dt * b.pol.MinPerSec
		if b.tokens > b.pol.Burst {
			b.tokens = b.pol.Burst
		}
	}
	b.last = t
}

// Allow spends one token for a retry. False means the budget is
// exhausted and the retry must be suppressed. A nil budget allows
// everything (budgeting disabled).
func (b *Budget) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if b.tokens >= 1 {
		b.tokens--
		b.spent++
		return true
	}
	b.suppress++
	return false
}

// Earn credits the budget for one successful call (Ratio tokens). A nil
// budget ignores it.
func (b *Budget) Earn() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	b.successes++
	b.tokens += b.pol.Ratio
	if b.tokens > b.pol.Burst {
		b.tokens = b.pol.Burst
	}
}

// BudgetStats is a point-in-time view of a budget's accounting.
type BudgetStats struct {
	// Tokens is the current allowance.
	Tokens float64
	// Spent counts retries the budget funded.
	Spent int64
	// Suppressed counts retries refused on an empty bucket.
	Suppressed int64
	// Successes counts Earn calls.
	Successes int64
}

// Stats snapshots the budget. A nil budget reports zeros.
func (b *Budget) Stats() BudgetStats {
	if b == nil {
		return BudgetStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BudgetStats{Tokens: b.tokens, Spent: b.spent, Suppressed: b.suppress, Successes: b.successes}
}
