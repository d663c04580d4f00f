package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"sr3/internal/id"
	"sr3/internal/nettransport"
	"sr3/internal/simnet"
)

// TestRawBodyCrossesAsChunkFrames sends a body larger than any benchmark
// state through the daemon's own listener and first-byte mux, both ways:
// it arrives byte-exact, and both ends' raw-body counters account for it —
// it went as chunk frames, not inside a gob value.
func TestRawBodyCrossesAsChunkFrames(t *testing.T) {
	spec := idleSpec()
	n1 := startTestNode(t, "n1", "", spec)
	defer n1.Stop()
	n2 := startTestNode(t, "n2", n1.Addr(), spec)
	defer n2.Stop()

	blob := randomBlob(16<<20 + 12345)
	before1, before2 := n1.net.DataPlane(), n2.net.DataPlane()
	o, peer := n1.backend.overlay, id.HashKey("n2")
	if _, err := o.Send(peer, simnet.Message{Kind: kindKVPut, Payload: "big", Raw: blob}); err != nil {
		t.Fatalf("put: %v", err)
	}
	reply, err := o.Send(peer, simnet.Message{Kind: kindKVGet, Payload: "big"})
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(reply.Raw, blob) {
		t.Fatalf("%d bytes came back, not the %d sent", len(reply.Raw), len(blob))
	}
	reply.ReleaseRaw()
	// The exchange's counters are on the node's own registry, so on its
	// /metrics: their first caller outside tests.
	for _, name := range []string{"sr3_net_calls_total", "sr3_net_dials_total"} {
		if got := n1.reg.Counter(name).Value(); got < 2 {
			t.Errorf("n1 %s = %d after two exchanges", name, got)
		}
	}
	// Once there and once back; whatever the idle topology saved meanwhile
	// only adds to it.
	wantBytes := int64(2 * len(blob))
	wantFrames := 2 * int64(len(blob)/nettransport.DefaultChunkSize)
	for name, d := range map[string][2]nettransport.DataPlaneStats{
		"n1": {before1, n1.net.DataPlane()}, "n2": {before2, n2.net.DataPlane()},
	} {
		if got := d[1].RawBytes - d[0].RawBytes; got < wantBytes {
			t.Errorf("%s counted %d raw-body bytes, want >= %d", name, got, wantBytes)
		}
		if got := d[1].RawFrames - d[0].RawFrames; got < wantFrames {
			t.Errorf("%s counted %d chunk frames, want >= %d", name, got, wantFrames)
		}
	}
}

// TestSendToSilentPeerTimesOut: a member that accepts the connection,
// reads the request and never answers costs the sender one deadline, and
// the error says timeout.
func TestSendToSilentPeerTimesOut(t *testing.T) {
	defer func(d time.Duration) { rpcTimeout = d }(rpcTimeout)
	rpcTimeout = 300 * time.Millisecond
	spec := idleSpec()
	n1 := startTestNode(t, "n1", "", spec)
	defer n1.Stop()
	n2 := startTestNode(t, "n2", n1.Addr(), spec)
	defer n2.Stop()
	release := make(chan struct{})
	defer close(release) // before n2.Stop, which waits for its handlers
	n2.backend.overlay.HandleDirect("test.silent", func(id.ID, simnet.Message) (simnet.Message, error) {
		<-release
		return simnet.Message{}, nil
	})

	begin := time.Now()
	_, err := n1.backend.overlay.Send(id.HashKey("n2"), simnet.Message{Kind: "test.silent"})
	if !errors.Is(err, nettransport.ErrTimeout) {
		t.Fatalf("send to a peer that never replies: %v, want ErrTimeout", err)
	}
	if took := time.Since(begin); took < rpcTimeout || took > rpcTimeout+2*time.Second {
		t.Fatalf("gave up after %v, deadline is %v", took, rpcTimeout)
	}
	if got := n1.reg.Counter("sr3_net_io_timeouts_total").Value(); got < 1 {
		t.Fatalf("sr3_net_io_timeouts_total = %d after a timeout", got)
	}
}

// TestHostileRawLenDropsTheConnection: a 'C' connection whose header
// announces a body above the transport's cap is hung up on — no reply,
// nothing allocated for it — and the node keeps serving.
func TestHostileRawLenDropsTheConnection(t *testing.T) {
	n1 := startTestNode(t, "n1", "", idleSpec())
	defer n1.Stop()
	conn, err := net.Dial("tcp", n1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// gob matches struct fields by name: this is a request header.
	var header bytes.Buffer
	header.WriteByte(nettransport.Magic)
	if err := gob.NewEncoder(&header).Encode(struct {
		Kind   string
		RawLen int
	}{kindKVPut, 1<<30 + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(header.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if reply, err := io.ReadAll(conn); err != nil || len(reply) != 0 {
		t.Fatalf("got %d reply bytes, err %v; want the connection closed with nothing said", len(reply), err)
	}
	if pool := n1.net.DataPlane().Pool; pool.Misses != 0 {
		t.Fatalf("a body buffer was allocated for the hostile header: %+v", pool)
	}
	if _, err := call[viewResp](n1, n1.Addr(), simnet.Message{Kind: kindView, Payload: &viewReq{}}, rpcTimeout); err != nil {
		t.Fatalf("node stopped serving: %v", err)
	}
}

// TestHeartbeatStaysSmall pins what the one-shot envelope cost: a
// heartbeat request was 2 534 bytes when every call re-sent the type
// tree of every request and reply the daemon knows. A message carries
// only its own payload's.
func TestHeartbeatStaysSmall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	size := make(chan int, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// The header leaves in one write; read until the sender has had
		// nothing to add for a while.
		buf, n := make([]byte, 64<<10), 0
		for {
			_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			m, err := conn.Read(buf[n:])
			n += m
			if err != nil {
				break
			}
		}
		size <- n
	}()
	n1 := startTestNode(t, "n1", "", idleSpec())
	defer n1.Stop()
	_, err = call[heartbeatResp](n1, ln.Addr().String(), simnet.Message{Kind: kindHeartbeat, Payload: &heartbeatReq{
		Name: "a-node-with-a-long-name", Incarnation: time.Now().UnixNano(), Epoch: 1 << 40,
	}}, rpcTimeout)
	if err == nil {
		t.Fatal("a listener that never replies answered the heartbeat")
	}
	n := <-size
	t.Logf("heartbeat request: %d bytes", n)
	if n == 0 || n > 512 {
		t.Fatalf("heartbeat request is %d bytes on the wire, want 1..512", n)
	}
}

// TestSeedOnlyKindsAnswerNotSeed: the control plane's kinds are served by
// every node; all but the seed refuse them with ErrNotSeed, by code.
func TestSeedOnlyKindsAnswerNotSeed(t *testing.T) {
	spec := idleSpec()
	n1 := startTestNode(t, "n1", "", spec)
	defer n1.Stop()
	n2 := startTestNode(t, "n2", n1.Addr(), spec)
	defer n2.Stop()
	for kind, req := range map[string]any{
		kindJoin:      &joinReq{Name: "n3", Addr: "127.0.0.1:1", Incarnation: 1},
		kindHeartbeat: &heartbeatReq{Name: "n1"},
		kindView:      &viewReq{},
		kindLeave:     &leaveReq{Name: "n1"},
	} {
		_, err := n1.net.Exchange(n2.Addr(), n1.backend.overlay.self, simnet.Message{Kind: kind, Payload: req}, rpcTimeout)
		if !errors.Is(err, ErrNotSeed) {
			t.Errorf("%s to a non-seed: %v, want ErrNotSeed", kind, err)
		}
	}
	// A kind nobody registered and a payload of the wrong type are errors,
	// not panics.
	for _, msg := range []simnet.Message{
		{Kind: "cluster.nonesuch"},
		{Kind: kindHeartbeat, Payload: &joinReq{}},
		{Kind: kindAdopt},
	} {
		if _, err := n2.net.Exchange(n1.Addr(), n2.backend.overlay.self, msg, rpcTimeout); err == nil {
			t.Errorf("%s carrying %T was accepted", msg.Kind, msg.Payload)
		}
	}
}
