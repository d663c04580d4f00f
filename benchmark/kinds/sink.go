package kinds

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"sr3/internal/metrics"
	"sr3/internal/state"
	"sr3/internal/stream"
)

// Checker is the exactly-once bookkeeping of the sink: for every key the
// counts 1..floor have all been seen, plus a set of counts seen ahead of
// a gap. It lives in a protected state.MapStore (one small record per
// key), so the sink's state, its saves and its digest stay O(keys)
// however long the run is — the stock bolt.sink keeps one entry per
// tuple.
type Checker struct {
	store *state.MapStore
}

// NewChecker returns an empty checker.
func NewChecker() *Checker { return &Checker{store: state.NewMapStore()} }

// KeySeen is one key's record.
type KeySeen struct {
	Floor int64   `json:"floor"`
	Ahead []int64 `json:"ahead,omitempty"` // sorted, all > Floor+1 or blocked by a gap
}

func (c *Checker) load(key string) KeySeen {
	raw, ok := c.store.Get(key)
	if !ok {
		return KeySeen{}
	}
	var ks KeySeen
	v, n := binary.Uvarint(raw)
	ks.Floor = int64(v)
	for raw = raw[n:]; len(raw) > 0; raw = raw[n:] {
		v, n = binary.Uvarint(raw)
		if n <= 0 {
			break
		}
		ks.Ahead = append(ks.Ahead, int64(v))
	}
	return ks
}

func (c *Checker) save(key string, ks KeySeen) {
	buf := binary.AppendUvarint(make([]byte, 0, 10*(1+len(ks.Ahead))), uint64(ks.Floor))
	for _, a := range ks.Ahead {
		buf = binary.AppendUvarint(buf, uint64(a))
	}
	c.store.Put(key, buf)
}

// Accept records (key, count) and reports whether the pair is new. A
// pair seen before is an idempotent re-emission (what an upstream
// recovery produces when it replays past its restored state) and changes
// nothing.
func (c *Checker) Accept(key string, count int64) bool {
	ks := c.load(key)
	if count <= ks.Floor {
		return false
	}
	i := sort.Search(len(ks.Ahead), func(i int) bool { return ks.Ahead[i] >= count })
	if i < len(ks.Ahead) && ks.Ahead[i] == count {
		return false
	}
	if count == ks.Floor+1 {
		ks.Floor++
		for len(ks.Ahead) > 0 && ks.Ahead[0] == ks.Floor+1 {
			ks.Floor++
			ks.Ahead = ks.Ahead[1:]
		}
	} else {
		ks.Ahead = append(ks.Ahead, 0)
		copy(ks.Ahead[i+1:], ks.Ahead[i:])
		ks.Ahead[i] = count
	}
	c.save(key, ks)
	return true
}

// Seen returns every key's record.
func (c *Checker) Seen() map[string]KeySeen {
	out := map[string]KeySeen{}
	for _, k := range c.store.Keys() {
		out[k] = c.load(k)
	}
	return out
}

// Verdict compares what the sink saw with the reference counts.
type Verdict struct {
	Missing    int64 `json:"missing"`    // pairs (key, 1..want) never seen
	Duplicated int64 `json:"duplicated"` // pairs beyond want: upstream counted a tuple twice
}

// Check compares seen (key name -> record) against want (key id -> final
// count). Re-emissions are not failures and are counted by the sink as
// they arrive.
func Check(seen map[string]KeySeen, want []int64) Verdict {
	var v Verdict
	for id, w := range want {
		ks := seen[KeyName(int64(id))]
		got := ks.Floor
		if got > w {
			v.Duplicated += got - w
			got = w
		}
		for _, a := range ks.Ahead {
			if a <= w {
				got++
			} else {
				v.Duplicated++
			}
		}
		v.Missing += w - got
	}
	for k, ks := range seen {
		if id := KeyIndex(k); id < 0 || id >= int64(len(want)) {
			v.Duplicated += ks.Floor + int64(len(ks.Ahead))
		}
	}
	return v
}

// stallFloor is the shortest pause in sink progress kept as an event.
const stallFloor = 20 * time.Millisecond

// maxStalls bounds the event list (a run stalling more often than this
// keeps the first ones; the gap histogram still counts them all).
const maxStalls = 4096

// Stall is one pause in sink progress: no new pair for GapNs ending at
// EndNs.
type Stall struct {
	EndNs int64 `json:"end_ns"`
	GapNs int64 `json:"gap_ns"`
}

// Sink is bolt.benchsink: the Checker as a protected bolt, plus the
// measurements taken where results leave the system — the now−Ts histogram of first deliveries, and pauses in
// progress.
type Sink struct {
	chk *Checker

	mu        sync.Mutex
	distinct  int64
	reemitted int64
	lastNs    int64
	stalls    []Stall
	lag       metrics.LatencyHistogram // ns, first deliveries only
	gap       metrics.LatencyHistogram // ns between consecutive first deliveries
}

// NewSink builds the bolt.
func NewSink() *Sink {
	return &Sink{chk: NewChecker()}
}

// Store implements stream.StatefulBolt.
func (b *Sink) Store() stream.StateStore { return b.chk.store }

// Execute implements stream.Bolt.
func (b *Sink) Execute(t stream.Tuple, _ stream.Emit) error {
	key, count := t.StringAt(0), t.IntAt(1)
	if key == "" || count <= 0 {
		return fmt.Errorf("benchsink: malformed tuple %v", t)
	}
	fresh := b.chk.Accept(key, count)
	now := time.Now().UnixNano()
	b.mu.Lock()
	defer b.mu.Unlock()
	if !fresh {
		b.reemitted++
		return nil
	}
	b.distinct++
	b.lag.Record(now - t.Ts)
	if b.lastNs != 0 {
		g := now - b.lastNs
		b.gap.Record(g)
		if g >= int64(stallFloor) && len(b.stalls) < maxStalls {
			b.stalls = append(b.stalls, Stall{EndNs: now, GapNs: g})
		}
	}
	b.lastNs = now
	return nil
}

// SinkDigest is the sink's report at three levels of detail: counters
// (polled), plus histograms and stalls (window edges),
// plus every key's record (end of run).
type SinkDigest struct {
	Distinct  int64 `json:"distinct"`
	Reemitted int64 `json:"reemitted"`

	Lag    *Hist   `json:"lag,omitempty"`
	Gap    *Hist   `json:"gap,omitempty"`
	Stalls []Stall `json:"stalls,omitempty"`

	Seen map[string]KeySeen `json:"seen,omitempty"`
}

// Digest reports at level 0 (counters), 1 (+ distributions) or 2 (+ keys).
func (b *Sink) Digest(level int) SinkDigest {
	b.mu.Lock()
	d := SinkDigest{Distinct: b.distinct, Reemitted: b.reemitted}
	if level >= 1 {
		d.Stalls = append([]Stall(nil), b.stalls...)
		lag, gap := SnapshotHist(&b.lag), SnapshotHist(&b.gap)
		d.Lag, d.Gap = &lag, &gap
	}
	b.mu.Unlock()
	if level >= 2 {
		d.Seen = b.chk.Seen()
	}
	return d
}
