package simnet

import (
	"errors"
	"testing"

	"sr3/internal/id"
)

func echoHandler(from id.ID, msg Message) (Message, error) {
	return Message{Kind: "echo-reply", Size: msg.Size, Payload: msg.Payload}, nil
}

func TestCallRoundTrip(t *testing.T) {
	n := NewNetwork()
	a, b := id.HashKey("a"), id.HashKey("b")
	if err := n.Register(a, echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(b, echoHandler); err != nil {
		t.Fatal(err)
	}
	reply, err := n.Call(a, b, Message{Kind: "ping", Size: 64, Payload: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Payload != "hi" {
		t.Fatalf("payload = %v", reply.Payload)
	}
}

func TestDuplicateRegister(t *testing.T) {
	n := NewNetwork()
	a := id.HashKey("a")
	if err := n.Register(a, echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(a, echoHandler); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("got %v, want ErrDuplicate", err)
	}
}

func TestCallToUnknownNode(t *testing.T) {
	n := NewNetwork()
	a := id.HashKey("a")
	if err := n.Register(a, echoHandler); err != nil {
		t.Fatal(err)
	}
	_, err := n.Call(a, id.HashKey("ghost"), Message{Kind: "ping"})
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("got %v, want ErrUnknownNode", err)
	}
}

func TestFailAndRestore(t *testing.T) {
	n := NewNetwork()
	a, b := id.HashKey("a"), id.HashKey("b")
	_ = n.Register(a, echoHandler)
	_ = n.Register(b, echoHandler)

	n.Fail(b)
	if n.Alive(b) {
		t.Fatal("b should be down")
	}
	if _, err := n.Call(a, b, Message{Kind: "ping"}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("call to failed node: got %v", err)
	}
	// A crashed node cannot send either.
	if _, err := n.Call(b, a, Message{Kind: "ping"}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("call from failed node: got %v", err)
	}

	n.Restore(b)
	if !n.Alive(b) {
		t.Fatal("b should be restored")
	}
	if _, err := n.Call(a, b, Message{Kind: "ping"}); err != nil {
		t.Fatalf("call after restore: %v", err)
	}
}

func TestTrafficAccounting(t *testing.T) {
	n := NewNetwork()
	a, b := id.HashKey("a"), id.HashKey("b")
	_ = n.Register(a, echoHandler)
	_ = n.Register(b, echoHandler)

	for i := 0; i < 3; i++ {
		if _, err := n.Call(a, b, Message{Kind: "ping", Size: 100}); err != nil {
			t.Fatal(err)
		}
	}
	tr := n.Traffic()
	if tr.BytesSentPerNode[a] != 300 {
		t.Fatalf("a sent %d, want 300", tr.BytesSentPerNode[a])
	}
	if tr.BytesSentPerNode[b] != 300 { // echo replies same size
		t.Fatalf("b sent %d, want 300", tr.BytesSentPerNode[b])
	}
	if tr.BytesPerKind["ping"] != 300 {
		t.Fatalf("ping bytes = %d", tr.BytesPerKind["ping"])
	}
	n.ResetTraffic()
	if got := n.Traffic(); len(got.BytesSentPerNode) != 0 {
		t.Fatal("traffic not reset")
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	n := NewNetwork()
	a, b := id.HashKey("a"), id.HashKey("b")
	boom := errors.New("boom")
	_ = n.Register(a, echoHandler)
	_ = n.Register(b, func(from id.ID, msg Message) (Message, error) {
		return Message{}, boom
	})
	if _, err := n.Call(a, b, Message{Kind: "ping"}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

// TestCallJoinsSegmentsIntoAReceiverOwnedBody: the in-process transport
// makes the one copy a wire would — the handler sees the concatenation as
// Raw, may keep it, and the sender's later writes to its segments do not
// reach it; a reply's segments reach the caller joined the same way.
func TestCallJoinsSegmentsIntoAReceiverOwnedBody(t *testing.T) {
	n := NewNetwork()
	a, b := id.HashKey("a"), id.HashKey("b")
	var kept []byte
	if err := n.Register(a, echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(b, func(_ id.ID, msg Message) (Message, error) {
		if msg.RawSegs != nil {
			t.Error("a receiver sees Raw only")
		}
		kept, _ = msg.TakeRaw()
		return Message{Kind: "ok", RawSegs: [][]byte{[]byte("re"), []byte("ply")}}, nil
	}); err != nil {
		t.Fatal(err)
	}
	segs := [][]byte{[]byte("head"), {}, []byte("body bytes")}
	reply, err := n.Call(a, b, Message{Kind: "push", RawSegs: segs})
	if err != nil {
		t.Fatal(err)
	}
	segs[2][0] = 'X'
	if string(kept) != "headbody bytes" {
		t.Fatalf("receiver kept %q", kept)
	}
	if string(reply.Raw) != "reply" || reply.RawSegs != nil {
		t.Fatalf("caller got Raw %q and %d segments, want the reply joined", reply.Raw, len(reply.RawSegs))
	}
}

// TestTakeRawDetachesALentBuffer: a transport that lends a request's buffer
// learns that the handler took it, and the handler gets the buffer itself
// — spare capacity and all, never a copy — with the transport's release,
// which is now the handler's to run, once. A body no transport owns comes
// with no release.
func TestTakeRawDetachesALentBuffer(t *testing.T) {
	for _, buf := range [][]byte{[]byte("exact-size body"), make([]byte, 8, 64)} {
		var taken bool
		released := 0
		msg := Message{Raw: buf}
		msg.LendRaw(&taken)
		msg.SetFree(func() { released++ })
		handed := msg // a handler gets the message by value
		got, release := handed.TakeRaw()
		if &got[0] != &buf[0] || cap(got) != cap(buf) || !taken || release == nil {
			t.Fatalf("cap %d buffer: same memory %v, cap %d, taken %v, release %v; want the buffer itself, taken, with its release",
				cap(buf), &got[0] == &buf[0], cap(got), taken, release != nil)
		}
		handed.ReleaseRaw() // the taker's copy no longer releases anything
		if released != 0 {
			t.Fatal("ReleaseRaw after TakeRaw released the taken buffer")
		}
		release()
		if released != 1 {
			t.Fatalf("the release ran the transport's free %d times, want once", released)
		}
	}

	own := []byte("caller-owned")
	msg := Message{Raw: own}
	if got, release := msg.TakeRaw(); &got[0] != &own[0] || release != nil {
		t.Fatal("a body no transport lent was copied or came with a release")
	}
}
