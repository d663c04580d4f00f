package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary span-record wire format, for shipping trace batches between
// processes (a remote node's Collector.ExportBinary → the seed's
// observability hub, which decodes it record by record). One record is:
//
//	uvarint version (currently 1)
//	uvarint trace, span, parent
//	uvarint len(phase) + phase bytes
//	varint  start, end (nanoseconds)
//	uvarint nattrs, then per attr:
//	    uvarint len(key) + key bytes
//	    uvarint len(str) + str bytes
//	    varint  int
//
// Records concatenate into a batch with no framing beyond their own
// self-description. The decoder is defensive — every length is bounded
// before allocation — because batches cross process boundaries; the fuzz
// test (wire_fuzz_test.go) hammers exactly that property.

const (
	wireVersion = 1
	// maxPhaseLen / maxKeyLen / maxStrLen bound decoded strings; real
	// phases and keys are short identifiers, values are error strings.
	maxPhaseLen = 256
	maxKeyLen   = 256
	maxStrLen   = 4096
	// maxWireAttrs bounds a record's attribute count (encoders cap at
	// maxAttrs; the margin tolerates future growth without a version bump).
	maxWireAttrs = 64
)

// Wire decode errors.
var (
	ErrWireTruncated = errors.New("obs: truncated span record")
	ErrWireVersion   = errors.New("obs: unsupported span record version")
	ErrWireBounds    = errors.New("obs: span record field exceeds bounds")
)

// AppendSpanRecord appends rec's encoding to buf and returns the result.
func AppendSpanRecord(buf []byte, rec SpanRecord) []byte {
	buf = binary.AppendUvarint(buf, wireVersion)
	buf = binary.AppendUvarint(buf, rec.Trace)
	buf = binary.AppendUvarint(buf, rec.Span)
	buf = binary.AppendUvarint(buf, rec.Parent)
	buf = appendString(buf, rec.Phase, maxPhaseLen)
	buf = binary.AppendVarint(buf, rec.Start)
	buf = binary.AppendVarint(buf, rec.End)
	n := len(rec.Attrs)
	if n > maxWireAttrs {
		n = maxWireAttrs
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, a := range rec.Attrs[:n] {
		buf = appendString(buf, a.Key, maxKeyLen)
		buf = appendString(buf, a.Str, maxStrLen)
		buf = binary.AppendVarint(buf, a.Int)
	}
	return buf
}

func appendString(buf []byte, s string, max int) []byte {
	if len(s) > max {
		s = s[:max]
	}
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeSpanRecord decodes one record from the front of b, returning the
// record and the remaining bytes.
func DecodeSpanRecord(b []byte) (SpanRecord, []byte, error) {
	var rec SpanRecord
	ver, b, err := readUvarint(b)
	if err != nil {
		return rec, nil, err
	}
	if ver != wireVersion {
		return rec, nil, fmt.Errorf("%w: %d", ErrWireVersion, ver)
	}
	if rec.Trace, b, err = readUvarint(b); err != nil {
		return rec, nil, err
	}
	if rec.Span, b, err = readUvarint(b); err != nil {
		return rec, nil, err
	}
	if rec.Parent, b, err = readUvarint(b); err != nil {
		return rec, nil, err
	}
	if rec.Phase, b, err = readString(b, maxPhaseLen); err != nil {
		return rec, nil, err
	}
	if rec.Start, b, err = readVarint(b); err != nil {
		return rec, nil, err
	}
	if rec.End, b, err = readVarint(b); err != nil {
		return rec, nil, err
	}
	nattrs, b, err := readUvarint(b)
	if err != nil {
		return rec, nil, err
	}
	if nattrs > maxWireAttrs {
		return rec, nil, fmt.Errorf("%w: %d attrs", ErrWireBounds, nattrs)
	}
	if nattrs > 0 {
		rec.Attrs = make([]Attr, 0, nattrs)
		for i := uint64(0); i < nattrs; i++ {
			var a Attr
			if a.Key, b, err = readString(b, maxKeyLen); err != nil {
				return rec, nil, err
			}
			if a.Str, b, err = readString(b, maxStrLen); err != nil {
				return rec, nil, err
			}
			if a.Int, b, err = readVarint(b); err != nil {
				return rec, nil, err
			}
			rec.Attrs = append(rec.Attrs, a)
		}
	}
	return rec, b, nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrWireTruncated
	}
	return v, b[n:], nil
}

func readVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, ErrWireTruncated
	}
	return v, b[n:], nil
}

func readString(b []byte, max int) (string, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(max) {
		return "", nil, fmt.Errorf("%w: string of %d bytes", ErrWireBounds, n)
	}
	if uint64(len(b)) < n {
		return "", nil, ErrWireTruncated
	}
	return string(b[:n]), b[n:], nil
}
