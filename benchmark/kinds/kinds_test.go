package kinds

import (
	"reflect"
	"testing"

	"sr3/internal/metrics"
)

// feed builds a checker that has seen 1..n of key, in order.
func feed(c *Checker, key string, n int64) {
	for i := int64(1); i <= n; i++ {
		c.Accept(key, i)
	}
}

func TestCheckerFlagsExactlyTheInjectedFault(t *testing.T) {
	k0, k1 := KeyName(0), KeyName(1)
	want := []int64{5, 5}
	cases := []struct {
		name      string
		inject    func(c *Checker) (reemitted int)
		verdict   Verdict
		reemitted int
	}{
		{"clean", func(c *Checker) int { feed(c, k0, 5); feed(c, k1, 5); return 0 }, Verdict{}, 0},
		{"duplicate: upstream counted a tuple twice", func(c *Checker) int {
			feed(c, k0, 6)
			feed(c, k1, 5)
			return 0
		}, Verdict{Duplicated: 1}, 0},
		{"gap: one pair never arrives", func(c *Checker) int {
			for _, n := range []int64{1, 2, 4, 5} {
				c.Accept(k0, n)
			}
			feed(c, k1, 5)
			return 0
		}, Verdict{Missing: 1}, 0},
		{"reorder: every pair arrives, out of order", func(c *Checker) int {
			for _, n := range []int64{2, 1, 5, 3, 4} {
				if !c.Accept(k0, n) {
					t.Errorf("reordered pair %d rejected", n)
				}
			}
			feed(c, k1, 5)
			return 0
		}, Verdict{}, 0},
		{"idempotent re-emission: a recovery replays pairs already seen", func(c *Checker) int {
			feed(c, k0, 5)
			feed(c, k1, 5)
			n := 0
			for _, p := range []int64{3, 4, 5} {
				if !c.Accept(k0, p) {
					n++
				}
			}
			return n
		}, Verdict{}, 3},
	}
	for _, tc := range cases {
		c := NewChecker()
		re := tc.inject(c)
		if got := Check(c.Seen(), want); got != tc.verdict {
			t.Errorf("%s: verdict %+v, want %+v", tc.name, got, tc.verdict)
		}
		if re != tc.reemitted {
			t.Errorf("%s: %d re-emissions, want %d", tc.name, re, tc.reemitted)
		}
	}
}

func TestCheckerStateStaysPerKey(t *testing.T) {
	c := NewChecker()
	feed(c, KeyName(0), 10000)
	c.Accept(KeyName(0), 10002) // one pair ahead of a gap
	if n := c.store.Len(); n != 1 {
		t.Fatalf("store holds %d entries for one key", n)
	}
	if b := c.store.SizeBytes(); b > 64 {
		t.Fatalf("store is %d bytes after 10001 pairs of one key", b)
	}
	want := KeySeen{Floor: 10000, Ahead: []int64{10002}}
	if got := c.Seen()[KeyName(0)]; !reflect.DeepEqual(got, want) {
		t.Fatalf("record %+v, want %+v", got, want)
	}
}

func TestGenIsAFunctionOfSeed(t *testing.T) {
	const keys, n = 64, 1000
	seq := func(seed int64) []int64 {
		g := NewGen(seed, keys)
		out := make([]int64, n)
		for i := range out {
			out[i] = g.KeyID(int64(i + 1))
		}
		return out
	}
	a, b, other := seq(7), seq(7), seq(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two sequences")
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("seeds 7 and 8 gave the same sequence")
	}
	if !reflect.DeepEqual(NewGen(7, keys).Reference(n), NewGen(7, keys).Reference(n)) {
		t.Fatal("same seed gave two references")
	}
	if reflect.DeepEqual(NewGen(7, keys).Reference(n), NewGen(8, keys).Reference(n)) {
		t.Fatal("seeds 7 and 8 gave the same reference")
	}
	// Every block of keys tuples touches each key once, so the reference
	// after whole blocks is flat and state is full after the first block.
	for _, k := range []int64{1, 64, 4096, 1000} {
		g := NewGen(3, k)
		for id, c := range g.Reference(3 * k) {
			if c != 3 {
				t.Fatalf("keys=%d: key %d counted %d times in 3 blocks", k, id, c)
			}
		}
	}
}

func TestKeyNameRoundTrip(t *testing.T) {
	for _, id := range []int64{0, 1, 4095, 999999} {
		if got := KeyIndex(KeyName(id)); got != id {
			t.Fatalf("KeyIndex(KeyName(%d)) = %d", id, got)
		}
	}
	for _, bad := range []string{"", "k1", "x000001", "k00000a", "c|k000001"} {
		if KeyIndex(bad) != -1 {
			t.Fatalf("KeyIndex(%q) accepted", bad)
		}
	}
}

func TestHistWindowQuantile(t *testing.T) {
	var h metrics.LatencyHistogram
	for i := 0; i < 1000; i++ {
		h.Record(1000) // before the window
	}
	before := SnapshotHist(&h)
	for v := int64(1); v <= 10000; v++ {
		h.Record(v * 1000) // 1 us .. 10 ms, uniform
	}
	win := SnapshotHist(&h).Sub(before)
	if win.Count != 10000 {
		t.Fatalf("window holds %d observations, want 10000", win.Count)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := win.Quantile(q), q*10e6
		// A bucket is 12.5 % wide and the observations end inside the last.
		if got < want*0.94 || got > want*1.06 {
			t.Errorf("q%.2f = %.0f ns, want %.0f within 6%%", q, got, want)
		}
	}
}
