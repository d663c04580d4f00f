package cluster

import (
	"encoding/binary"
	"fmt"

	"sr3/internal/obs"
)

// Flow-frame header: a fixed 36-byte prefix on every batch frame of a
// tuple stream, carrying what the PR 8 batch codec cannot — origin-node
// timestamps for per-hop wire latency and e2e event-time lag, and an
// optional trace context that lets replayed recovery output stitch the
// ingress process into the recovery's distributed trace.
//
//	offset  size  field
//	0       2     magic "FH"
//	2       1     version (1)
//	3       1     flags (bit 0: trace context present)
//	4       8     send timestamp, origin UnixNano, big endian
//	12      8     oldest-tuple timestamp, origin UnixNano, big endian
//	20      8     trace ID (0 when untraced)
//	28      8     span ID  (0 when untraced)
//
// Timestamps are the origin's wall clock: on one host (playground,
// compose on one machine) hop latency is exact; across hosts it is
// offset by clock skew and the histograms read as "skew + wire", which
// is still the right signal for detecting a stalled or drifting edge.
// The header is fixed-size and written into the relay's reused header
// buffer, so tracing — enabled or not — adds zero allocations to the
// batched emit path (guarded by TestRelayAdmitZeroAlloc).
const (
	frameMagic0    = 'F'
	frameMagic1    = 'H'
	frameVersion   = 1
	frameFlagTrace = 1 << 0
	frameHeaderLen = 36
)

// appendFrameHeader appends the 36-byte header to dst and returns the
// extended slice. It never allocates beyond dst's growth.
func appendFrameHeader(dst []byte, sendNs, oldestNs int64, tc obs.SpanContext) []byte {
	var hdr [frameHeaderLen]byte
	hdr[0], hdr[1], hdr[2] = frameMagic0, frameMagic1, frameVersion
	if tc.Valid() {
		hdr[3] = frameFlagTrace
	}
	binary.BigEndian.PutUint64(hdr[4:], uint64(sendNs))
	binary.BigEndian.PutUint64(hdr[12:], uint64(oldestNs))
	binary.BigEndian.PutUint64(hdr[20:], tc.Trace)
	binary.BigEndian.PutUint64(hdr[28:], tc.Span)
	return append(dst, hdr[:]...)
}

// parseFrameHeader splits a received frame into its header fields and
// the batch-codec body.
func parseFrameHeader(b []byte) (sendNs, oldestNs int64, tc obs.SpanContext, body []byte, err error) {
	if len(b) < frameHeaderLen {
		return 0, 0, obs.SpanContext{}, nil, fmt.Errorf("flow frame %d bytes, need %d header", len(b), frameHeaderLen)
	}
	if b[0] != frameMagic0 || b[1] != frameMagic1 {
		return 0, 0, obs.SpanContext{}, nil, fmt.Errorf("flow frame bad magic %q", b[:2])
	}
	if b[2] != frameVersion {
		return 0, 0, obs.SpanContext{}, nil, fmt.Errorf("flow frame version %d unsupported", b[2])
	}
	sendNs = int64(binary.BigEndian.Uint64(b[4:]))
	oldestNs = int64(binary.BigEndian.Uint64(b[12:]))
	if b[3]&frameFlagTrace != 0 {
		tc = obs.SpanContext{
			Trace: binary.BigEndian.Uint64(b[20:]),
			Span:  binary.BigEndian.Uint64(b[28:]),
		}
	}
	return sendNs, oldestNs, tc, b[frameHeaderLen:], nil
}
