package nettransport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// tcpPair returns two ends of a loopback TCP connection — the real
// transport substrate, so the vectored writes hit an actual socket.
func tcpPair(t testing.TB) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		client.Close()
		t.Fatal(r.err)
	}
	t.Cleanup(func() {
		client.Close()
		r.c.Close()
	})
	return client, r.c
}

// splitRandomly cuts body into 1..8 segments at random boundaries
// (empty segments included) so writeRawVec crosses chunk edges at
// arbitrary offsets.
func splitRandomly(rng *rand.Rand, body []byte) [][]byte {
	n := 1 + rng.Intn(8)
	cuts := make([]int, 0, n+1)
	cuts = append(cuts, 0)
	for i := 0; i < n-1; i++ {
		cuts = append(cuts, rng.Intn(len(body)+1))
	}
	cuts = append(cuts, len(body))
	for i := 1; i < len(cuts); i++ { // insertion sort: tiny n
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	segs := make([][]byte, 0, n)
	for i := 1; i < len(cuts); i++ {
		segs = append(segs, body[cuts[i-1]:cuts[i]])
	}
	return segs
}

// TestWriteRawVecMatchesWriteRaw: for bodies crossing every framing
// boundary — sub-chunk, exact grid, many chunks with a ragged tail — the
// vectored writer must put on the wire the byte stream of the joined
// body, decoded by an unchanged readRaw.
func TestWriteRawVecMatchesWriteRaw(t *testing.T) {
	sizes := []int{
		1,
		DefaultChunkSize - 1,
		DefaultChunkSize,
		DefaultChunkSize + 1,
		32 * DefaultChunkSize,
		48*DefaultChunkSize + 7, // ragged tail
	}
	rng := rand.New(rand.NewSource(11))
	for _, size := range sizes {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			body := make([]byte, size)
			rng.Read(body)
			segs := splitRandomly(rng, body)
			cw, sw := tcpPair(t)
			bc := NewBatchConn(cw, 5*time.Second)
			bs := NewBatchConn(sw, 5*time.Second)
			var wg sync.WaitGroup
			wg.Add(1)
			var werr error
			go func() {
				defer wg.Done()
				werr = bc.WriteBatch(segs...)
			}()
			got, free, err := bs.ReadBatch()
			if err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if werr != nil {
				t.Fatal(werr)
			}
			if !bytes.Equal(got, body) {
				t.Fatalf("size %d in %d segs: body mismatch", size, len(segs))
			}
			free()
		})
	}
}

// TestBatchConnSequentialBodies: several bodies back to back on one
// connection, with the receive buffer reused across them.
func TestBatchConnSequentialBodies(t *testing.T) {
	cw, sw := tcpPair(t)
	bc := NewBatchConn(cw, 5*time.Second)
	bs := NewBatchConn(sw, 5*time.Second)
	rng := rand.New(rand.NewSource(3))
	bodies := make([][]byte, 20)
	for i := range bodies {
		bodies[i] = make([]byte, 1+rng.Intn(4096))
		rng.Read(bodies[i])
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range bodies {
			// Split the header off as its own segment, like the bench
			// sender does with a pooled frame.
			if err := bc.WriteBatch(b[:1], b[1:]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	seen := map[*byte]bool{}
	reused := false
	for i, want := range bodies {
		got, free, err := bs.ReadBatch()
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("body %d mismatch", i)
		}
		reused = reused || seen[&got[0]]
		seen[&got[0]] = true
		free()
	}
	wg.Wait()
	if !reused {
		t.Fatal("the receive side never reused a buffer across 20 bodies")
	}
}

// TestBatchConnEmptyBody: a zero-length body is legal (an empty batch
// frame is a valid codec output) and must not wedge the stream.
func TestBatchConnEmptyBody(t *testing.T) {
	cw, sw := tcpPair(t)
	bc := NewBatchConn(cw, 5*time.Second)
	bs := NewBatchConn(sw, 5*time.Second)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := bc.WriteBatch(); err != nil {
			t.Errorf("empty write: %v", err)
		}
		if err := bc.WriteBatch([]byte("after")); err != nil {
			t.Errorf("follow-up write: %v", err)
		}
	}()
	got, free, err := bs.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty body read %d bytes", len(got))
	}
	free()
	got, free, err = bs.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "after" {
		t.Fatalf("follow-up body = %q", got)
	}
	free()
	wg.Wait()
}

// TestBatchConnRejectsOversizedHeader: an announced length past the cap
// fails before any allocation happens.
func TestBatchConnRejectsOversizedHeader(t *testing.T) {
	cw, sw := tcpPair(t)
	bs := NewBatchConn(sw, 5*time.Second)
	go func() {
		// Hand-write a uvarint announcing MaxBatchBytes+1.
		var hdr [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(hdr[:], uint64(MaxBatchBytes)+1)
		cw.Write(hdr[:n])
	}()
	if _, _, err := bs.ReadBatch(); err == nil {
		t.Fatal("oversized announcement accepted")
	}
	if err := bs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBatchRejectsOversizedBody: the sender-side guard mirrors the
// receiver cap so the failure is local and immediate — nothing reaches
// the wire.
func TestWriteBatchRejectsOversizedBody(t *testing.T) {
	cw, _ := tcpPair(t)
	bc := NewBatchConn(cw, time.Second)
	big := make([]byte, MaxBatchBytes/2+1)
	if err := bc.WriteBatch(big, big); err == nil {
		t.Fatal("oversized body accepted")
	}
}

// TestBatchConnWaitsOutIdleButNotAStall: the timeout bounds a body, not
// the wait for one — a reader idle for several timeouts still gets the
// next body — while a body that stops halfway still fails the read.
func TestBatchConnWaitsOutIdleButNotAStall(t *testing.T) {
	const timeout = 50 * time.Millisecond
	cw, sw := tcpPair(t)
	bs := NewBatchConn(sw, timeout)
	go func() {
		time.Sleep(4 * timeout)
		_ = NewBatchConn(cw, timeout).WriteBatch([]byte("late"))
		time.Sleep(4 * timeout)
		// A header announcing 8 bytes, then 3 of them, then nothing.
		_ = cw.SetWriteDeadline(time.Time{}) // the writer's has passed
		_, _ = cw.Write([]byte{8, 'h', 'a', 'l'})
	}()
	got, free, err := bs.ReadBatch()
	if err != nil || string(got) != "late" {
		t.Fatalf("after an idle stretch: %q, %v; want the body", got, err)
	}
	free()
	if _, _, err := bs.ReadBatch(); err == nil {
		t.Fatal("a body that stalled halfway was read")
	}
}

// TestReadBatchZeroAlloc: a reader that frees each body before reading
// the next allocates nothing per body once its buffer has grown — no free
// closure, no boxed slice header — and a body still out when the next
// is read is not overwritten by it.
func TestReadBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	cw, sw := net.Pipe()
	defer cw.Close()
	defer sw.Close()
	const runs = 200
	body := bytes.Repeat([]byte("frame"), 300)
	go func() {
		bc := NewBatchConn(cw, 0)
		for i := 0; i < runs+3; i++ {
			if bc.WriteBatch(body[:1], body[1:]) != nil {
				return
			}
		}
	}()
	bs := NewBatchConn(sw, 0)
	allocs := testing.AllocsPerRun(runs, func() {
		got, free, err := bs.ReadBatch()
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("read %d bytes, %v", len(got), err)
		}
		free()
	})
	if allocs != 0 {
		t.Fatalf("ReadBatch + free = %.1f allocs per body, want 0", allocs)
	}
	first, freeFirst, err := bs.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	second, freeSecond, err := bs.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] == &second[0] || !bytes.Equal(first, body) || !bytes.Equal(second, body) {
		t.Fatal("a body still out was reused for the next")
	}
	freeFirst()
	freeSecond()
}
