package nettransport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"

	"sr3/internal/id"
	"sr3/internal/simnet"
)

func TestFrameCount(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{0, 0},
		{1, 1},
		{DefaultChunkSize - 1, 1},
		{DefaultChunkSize, 1},
		{DefaultChunkSize + 1, 2},
		{10 * DefaultChunkSize, 10},
		{10*DefaultChunkSize + 1, 11},
	}
	for _, tc := range cases {
		if got := frameCount(tc.n); got != tc.want {
			t.Errorf("frameCount(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestGrantCountSchedule pins the deterministic credit schedule both ends
// derive from the announced body length. The sender stalls once per
// creditEvery frames past the initial window; each stall consumes exactly
// one grant, so the counts must match or the connection desynchronizes.
func TestGrantCountSchedule(t *testing.T) {
	cases := []struct {
		frames int64
		want   int64
	}{
		{0, 0},
		{1, 0},
		{windowFrames, 0},               // fits in the initial window
		{windowFrames + 1, 1},           // first stall
		{windowFrames + creditEvery, 1}, // one grant covers creditEvery frames
		{windowFrames + creditEvery + 1, 2},
		{windowFrames + 5*creditEvery, 5},
		{1000, (1000 - windowFrames - 1) / creditEvery * 1},
	}
	for _, tc := range cases {
		if tc.frames == 1000 {
			tc.want = (1000-windowFrames-1)/creditEvery + 1
		}
		if got := grantCount(tc.frames); got != tc.want {
			t.Errorf("grantCount(%d) = %d, want %d", tc.frames, got, tc.want)
		}
	}
}

// TestGrantCountMatchesSenderStalls simulates the sender's window loop and
// checks the receiver's precomputed grant total equals the number of
// stalls the sender actually hits, for a sweep of body sizes around the
// window boundaries.
func TestGrantCountMatchesSenderStalls(t *testing.T) {
	for f := int64(0); f < 6*windowFrames; f++ {
		stalls, inFlight := int64(0), int64(0)
		for i := int64(0); i < f; i++ {
			if inFlight >= windowFrames {
				stalls++
				inFlight -= creditEvery
			}
			inFlight++
		}
		if got := grantCount(f); got != stalls {
			t.Fatalf("frames=%d: grantCount=%d, sender stalls=%d", f, got, stalls)
		}
	}
}

func TestBufPoolReuse(t *testing.T) {
	// sync.Pool may drop entries whenever the GC runs, so no single
	// put/get pair is guaranteed a hit; over many pairs at least one must
	// reuse (a GC between every single pair is not a plausible schedule).
	var bp bufPool
	for i := 0; i < 100 && bp.hits.Load() == 0; i++ {
		b := bp.get(100)
		if len(b) != 100 {
			t.Fatalf("len %d", len(b))
		}
		bp.put(b)
		c := bp.get(70) // a smaller body of the same size class reuses the capacity
		if len(c) != 70 {
			t.Fatalf("len %d", len(c))
		}
		bp.put(c)
	}
	if bp.hits.Load() == 0 {
		t.Fatal("pool never reused a buffer across 100 put/get pairs")
	}
	// A pooled buffer too small for the request is never returned: the
	// get is a miss no matter what the pool retained.
	missesBefore := bp.misses.Load()
	d := bp.get(1 << 20)
	if len(d) != 1<<20 {
		t.Fatalf("len %d", len(d))
	}
	if bp.misses.Load() != missesBefore+1 {
		t.Fatalf("oversized get not counted as miss")
	}
	// Zero-cap buffers are not pooled.
	bp.put(nil)
	if got := bp.get(8); len(got) != 8 {
		t.Fatalf("after nil put: len %d", len(got))
	}
}

// TestBufPoolNeverHandsABigBufferToASmallBody: a kept message pins the
// buffer it was read into, so the pool must not back a 1 KB body with the
// 12 MB buffer a shard batch left behind — and must still have that buffer
// for the next batch.
func TestBufPoolNeverHandsABigBufferToASmallBody(t *testing.T) {
	const big, small = 12 << 20, 1 << 10
	var bp bufPool
	reusedBig := false
	for i := 0; i < 100 && !reusedBig; i++ {
		b := bp.get(big)
		bp.put(b)
		for _, n := range []int{small, 1, big/2 - 1} {
			s := bp.get(n)
			if len(s) != n || cap(s) > 2*n {
				t.Fatalf("get(%d) returned len %d cap %d, want a buffer of at most twice the body", n, len(s), cap(s))
			}
			bp.put(s)
		}
		again := bp.get(big - big/4) // same class, a little smaller
		reusedBig = &again[:1][0] == &b[:1][0]
		if cap(again) > 2*len(again) {
			t.Fatalf("get(%d) returned cap %d", len(again), cap(again))
		}
	}
	if !reusedBig {
		t.Fatal("the big buffer was never reused for a body of its own size class")
	}
}

func TestPoolStatsHitRate(t *testing.T) {
	if r := (PoolStats{}).HitRate(); r != 0 {
		t.Fatalf("empty rate %v", r)
	}
	if r := (PoolStats{Hits: 3, Misses: 1}).HitRate(); r != 0.75 {
		t.Fatalf("rate %v", r)
	}
}

// TestRawBodyRoundTrip streams raw bodies of sizes chosen to cross every
// framing boundary — sub-chunk, exact chunk grid, window-filling, and
// multi-credit — and checks byte equality end to end plus the data-plane
// counters.
func TestRawBodyRoundTrip(t *testing.T) {
	n := New()
	defer n.Close()
	a, b := id.HashKey("raw-a"), id.HashKey("raw-b")
	// Echo the raw body back through a fresh slice so the reply path is
	// exercised too (the handler must not retain msg.Raw past return).
	echo := func(from id.ID, msg simnet.Message) (simnet.Message, error) {
		out := simnet.Message{Kind: "echo", Size: msg.Size}
		if len(msg.Raw) > 0 {
			out.Raw = append([]byte(nil), msg.Raw...)
		}
		return out, nil
	}
	_ = n.Register(a, echo)
	_ = n.Register(b, echo)

	sizes := []int{
		0,
		1,
		DefaultChunkSize - 1,
		DefaultChunkSize,
		DefaultChunkSize + 1,
		windowFrames * DefaultChunkSize,       // fills the window exactly
		(windowFrames + 1) * DefaultChunkSize, // first credit stall
		(windowFrames + 3*creditEvery) * DefaultChunkSize, // several grants
	}
	for _, size := range sizes {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			body := make([]byte, size)
			rand.New(rand.NewSource(int64(size))).Read(body)
			reply, err := n.Call(a, b, simnet.Message{Kind: "raw", Size: size, Raw: body})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reply.Raw, body) {
				t.Fatalf("size %d: raw body mismatch", size)
			}
			reply.ReleaseRaw()
		})
	}

	if dp := n.DataPlane(); dp.RawMessages == 0 || dp.RawBytes == 0 {
		t.Fatalf("data plane counters not advancing: %+v", dp)
	}
	// Repeated calls at one size should start hitting the reply-buffer
	// pool. sync.Pool may drop entries on any GC, so allow many attempts
	// before calling it broken.
	body := make([]byte, DefaultChunkSize)
	for i := 0; i < 32 && n.DataPlane().Pool.Hits == 0; i++ {
		reply, err := n.Call(a, b, simnet.Message{Kind: "raw", Size: len(body), Raw: body})
		if err != nil {
			t.Fatal(err)
		}
		reply.ReleaseRaw()
	}
	if n.DataPlane().Pool.Hits == 0 {
		t.Fatal("reply buffer pool never hit")
	}
}

// BenchmarkRawRoundTrip measures the chunked raw-body path over loopback
// TCP: one Call carrying size bytes in Raw, echoed back by size in the
// reply header only (the interesting direction is request upload).
func BenchmarkRawRoundTrip(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20, 8 << 20} {
		b.Run(fmt.Sprintf("size=%dKiB", size>>10), func(b *testing.B) {
			n := New()
			defer n.Close()
			src, dst := id.HashKey("bench-src"), id.HashKey("bench-dst")
			ack := func(id.ID, simnet.Message) (simnet.Message, error) {
				return simnet.Message{Kind: "ack"}, nil
			}
			_ = n.Register(src, ack)
			_ = n.Register(dst, ack)
			body := make([]byte, size)
			rand.New(rand.NewSource(1)).Read(body)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reply, err := n.Call(src, dst, simnet.Message{Kind: "raw", Size: size, Raw: body})
				if err != nil {
					b.Fatal(err)
				}
				reply.ReleaseRaw()
			}
		})
	}
}

// BenchmarkGobPayloadRoundTrip is the pre-PR baseline: the same bytes
// gob-encoded inside the payload, copied at every encode/decode step.
func BenchmarkGobPayloadRoundTrip(b *testing.B) {
	type blob struct{ Data []byte }
	gob.Register(&blob{})
	for _, size := range []int{64 << 10, 1 << 20, 8 << 20} {
		b.Run(fmt.Sprintf("size=%dKiB", size>>10), func(b *testing.B) {
			n := New()
			defer n.Close()
			src, dst := id.HashKey("gob-src"), id.HashKey("gob-dst")
			ack := func(id.ID, simnet.Message) (simnet.Message, error) {
				return simnet.Message{Kind: "ack"}, nil
			}
			_ = n.Register(src, ack)
			_ = n.Register(dst, ack)
			body := make([]byte, size)
			rand.New(rand.NewSource(1)).Read(body)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := n.Call(src, dst, simnet.Message{Kind: "gob", Size: size, Payload: &blob{Data: body}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
