package nettransport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"

	"sr3/internal/id"
	"sr3/internal/offheap"
	"sr3/internal/simnet"
)

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
		bp.release(b)
		c := bp.get(70) // a smaller body of the same size class reuses the capacity
		if len(c) != 70 {
			t.Fatalf("len %d", len(c))
		}
		bp.release(c)
	}
	if bp.hits.Load() == 0 {
		t.Fatal("pool never reused a buffer across 100 put/get pairs")
	}
	// Zero-cap buffers are not pooled.
	bp.release(nil)
	if got := bp.get(8); len(got) != 8 {
		t.Fatalf("after nil put: len %d", len(got))
	}
}

// TestBufPoolNeverHandsABigBufferToASmallBody: a kept message pins the
// buffer it was read into, so the pool must not back a 1 KB body with the
// 12 MB buffer a shard batch left behind. It keeps no such buffer at all: a
// big body is mapped at its exact size, every time, and unmapped at its
// release.
func TestBufPoolNeverHandsABigBufferToASmallBody(t *testing.T) {
	const big, small = 12 << 20, 1 << 10
	var bp bufPool
	live := offheap.Bodies.Live()
	b := bp.get(big)
	if cap(b) != big || offheap.Bodies.Live() != live+big {
		t.Fatalf("a %d-byte body has cap %d and mapped %d bytes", big, cap(b), offheap.Bodies.Live()-live)
	}
	bp.release(b)
	if offheap.Bodies.Live() != live {
		t.Fatalf("%d bytes stay mapped after the big body's release", offheap.Bodies.Live()-live)
	}
	for _, n := range []int{small, 1, big/2 - 1} {
		s := bp.get(n)
		if len(s) != n || cap(s) > 2*n {
			t.Fatalf("get(%d) returned len %d cap %d, want a buffer of at most twice the body", n, len(s), cap(s))
		}
		bp.release(s)
	}
	misses := bp.misses.Load()
	again := bp.get(big)
	if bp.misses.Load() != misses+1 || cap(again) != big {
		t.Fatal("a big body was read into a recycled buffer")
	}
	bp.release(again)
	if offheap.Bodies.Live() != live {
		t.Fatalf("%d bytes stay mapped after every release", offheap.Bodies.Live()-live)
	}
}

// TestRawBodyRoundTrip streams raw bodies of sizes chosen to cross every
// framing boundary — sub-chunk, exact chunk grid, and many chunks — and
// checks byte equality end to end plus the data-plane counters.
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
		32 * DefaultChunkSize,
		33 * DefaultChunkSize,
		80 * DefaultChunkSize,
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
