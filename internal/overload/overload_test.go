package overload

import (
	"sync"
	"testing"
	"time"
)

// stepClock is a manually advanced clock.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func newStepClock() *stepClock { return &stepClock{t: time.Unix(1000, 0)} }

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBudgetStartsWithBurst(t *testing.T) {
	clk := newStepClock()
	b := NewBudget(BudgetPolicy{Ratio: 0.1, MinPerSec: 0.001, Burst: 3})
	b.SetClock(clk.now)
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("retry %d refused with burst allowance", i)
		}
	}
	if b.Allow() {
		t.Fatal("4th retry allowed past burst of 3")
	}
	s := b.Stats()
	if s.Spent != 3 || s.Suppressed != 1 {
		t.Fatalf("spent=%d suppressed=%d, want 3/1", s.Spent, s.Suppressed)
	}
}

func TestBudgetEarnsFromSuccesses(t *testing.T) {
	clk := newStepClock()
	b := NewBudget(BudgetPolicy{Ratio: 0.5, MinPerSec: 0.0001, Burst: 2})
	b.SetClock(clk.now)
	for b.Allow() {
	}
	// Two successes fund one retry at ratio 0.5.
	b.Earn()
	if b.Allow() {
		t.Fatal("retry allowed on half a token")
	}
	b.Earn()
	if !b.Allow() {
		t.Fatal("retry refused after two successes at ratio 0.5")
	}
}

func TestBudgetTimeFloorRefills(t *testing.T) {
	clk := newStepClock()
	b := NewBudget(BudgetPolicy{Ratio: 0.1, MinPerSec: 2, Burst: 1})
	b.SetClock(clk.now)
	for b.Allow() {
	}
	clk.advance(250 * time.Millisecond) // 0.5 tokens — not enough
	if b.Allow() {
		t.Fatal("retry allowed on half a floor token")
	}
	clk.advance(300 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("floor refill never funded a probe")
	}
}

func TestBudgetBurstCap(t *testing.T) {
	clk := newStepClock()
	b := NewBudget(BudgetPolicy{Ratio: 5, MinPerSec: 0.0001, Burst: 2})
	b.SetClock(clk.now)
	for i := 0; i < 10; i++ {
		b.Earn()
	}
	allowed := 0
	for b.Allow() {
		allowed++
	}
	if allowed != 2 {
		t.Fatalf("burst cap leaked: %d retries allowed, want 2", allowed)
	}
}

func TestNilBudgetAllowsEverything(t *testing.T) {
	var b *Budget
	if !b.Allow() {
		t.Fatal("nil budget refused a retry")
	}
	b.Earn() // must not panic
	if s := b.Stats(); s != (BudgetStats{}) {
		t.Fatalf("nil budget stats = %+v", s)
	}
}

func TestBudgetConcurrency(t *testing.T) {
	b := NewBudget(BudgetPolicy{Ratio: 1, MinPerSec: 1000, Burst: 1000})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				b.Allow()
				b.Earn()
			}
		}()
	}
	wg.Wait()
	if s := b.Stats(); s.Successes != 8000 {
		t.Fatalf("successes = %d, want 8000", s.Successes)
	}
}
