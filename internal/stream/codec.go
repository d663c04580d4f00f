package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
)

// The tuple-batch wire codec: a compact, length-prefixed binary
// encoding for frames of same-class tuples crossing a process boundary,
// replacing per-tuple gob on the inter-task path. gob pays for its
// self-description — every message re-transmits type metadata unless
// encoder state is retained, and retained encoder state cannot be
// framed into independently decodable batches. This codec is
// schema-free the other way around: the handful of hot value types are
// tagged with one byte and written raw; anything else falls back to an
// embedded gob blob per value (correct for every gob-registered type,
// just not fast), so the codec is never less general than per-tuple gob.
//
// Layout (all integers varint unless noted):
//
//	magic "SB" (2 bytes) | version (1 byte) | class (1 byte)
//	| count (uvarint)
//	then per tuple:
//	| len(Stream) (uvarint) | Stream bytes
//	| Ts (zigzag varint)
//	| len(Values) (uvarint)
//	then per value: tag (1 byte) | payload (tag-specific)
//
// The batch carries exactly one traffic class — the frame-level
// admission unit of the two-lane queues — so class lives in the header,
// not per tuple. Decoding is strict: unknown versions, unknown tags,
// truncated payloads, implausible counts and trailing garbage all
// return ErrBatchCorrupt (fuzzed by FuzzDecodeTupleBatch).

// Codec names the tuple encoding for process-boundary frames; there is
// one (see Config.Codec).
type Codec int

// CodecBatch is the length-prefixed binary tuple-batch codec.
const CodecBatch Codec = 1

// ErrBatchCorrupt reports a tuple-batch frame that fails structural
// validation.
var ErrBatchCorrupt = errors.New("stream: corrupt tuple batch")

const (
	batchMagic0  = 'S'
	batchMagic1  = 'B'
	batchVersion = 1
)

// Value tags. vGob is the escape hatch: the value is an embedded gob
// blob (length-prefixed), so types outside the fast set still
// round-trip exactly like the per-tuple gob baseline.
const (
	valNil byte = iota
	valString
	valBytes
	valInt
	valInt64
	valUint64
	valFloat64
	valTrue
	valFalse
	valGob
)

// gobValue wraps an interface value so gob can encode/decode it through
// the concrete-type registry — the same contract as the gob baseline:
// callers gob.Register custom payload types.
type gobValue struct{ V any }

// EncodeTupleBatch appends the encoded frame for tuples (one traffic
// class per frame) to dst and returns the extended slice, so callers
// can reuse pooled buffers across frames.
func EncodeTupleBatch(dst []byte, tuples []Tuple, class TrafficClass) ([]byte, error) {
	dst = AppendBatchHeader(dst, class, len(tuples))
	for i := range tuples {
		var err error
		if dst, err = AppendTupleRecord(dst, &tuples[i]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// BatchHeaderMax bounds the bytes AppendBatchHeader appends.
const BatchHeaderMax = 4 + binary.MaxVarintLen64

// AppendBatchHeader appends the frame header — magic, version, class,
// tuple count — that count AppendTupleRecord records must follow. A
// frame is exactly header + records, so a sender that keeps records
// encoded can build a frame (and rebuild it under another class)
// without touching the tuples again.
func AppendBatchHeader(dst []byte, class TrafficClass, count int) []byte {
	dst = append(dst, batchMagic0, batchMagic1, batchVersion, byte(class))
	return binary.AppendUvarint(dst, uint64(count))
}

// AppendTupleRecord appends one tuple's record (the per-tuple part of
// the layout above) to dst. On error dst is returned at its original
// length.
func AppendTupleRecord(dst []byte, t *Tuple) ([]byte, error) {
	base := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(t.Stream)))
	dst = append(dst, t.Stream...)
	dst = binary.AppendVarint(dst, t.Ts)
	dst = binary.AppendUvarint(dst, uint64(len(t.Values)))
	for _, v := range t.Values {
		var err error
		if dst, err = appendValue(dst, v); err != nil {
			return dst[:base], err
		}
	}
	return dst, nil
}

func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, valNil), nil
	case string:
		dst = append(dst, valString)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...), nil
	case []byte:
		dst = append(dst, valBytes)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...), nil
	case int:
		dst = append(dst, valInt)
		return binary.AppendVarint(dst, int64(x)), nil
	case int64:
		dst = append(dst, valInt64)
		return binary.AppendVarint(dst, x), nil
	case uint64:
		dst = append(dst, valUint64)
		return binary.AppendUvarint(dst, x), nil
	case float64:
		dst = append(dst, valFloat64)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(x)), nil
	case bool:
		if x {
			return append(dst, valTrue), nil
		}
		return append(dst, valFalse), nil
	default:
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(gobValue{V: v}); err != nil {
			return dst, fmt.Errorf("stream: tuple batch gob fallback (%T): %w", v, err)
		}
		dst = append(dst, valGob)
		dst = binary.AppendUvarint(dst, uint64(buf.Len()))
		return append(dst, buf.Bytes()...), nil
	}
}

// batchReader is a bounds-checked cursor over an encoded frame.
type batchReader struct {
	data []byte
	off  int
}

func (r *batchReader) remaining() int { return len(r.data) - r.off }

func (r *batchReader) byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, ErrBatchCorrupt
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *batchReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, ErrBatchCorrupt
	}
	r.off += n
	return v, nil
}

func (r *batchReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, ErrBatchCorrupt
	}
	r.off += n
	return v, nil
}

// lenBytes returns a uvarint-length-prefixed byte string, see bytes.
func (r *batchReader) lenBytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	return r.bytes(n)
}

// bytes returns the next n bytes without copying; the caller copies if
// it retains them past the decode.
func (r *batchReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(r.remaining()) {
		return nil, ErrBatchCorrupt
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// DecodeTupleBatch decodes one frame, returning the tuples and the
// frame's traffic class. Decoding is strict — any structural anomaly
// (bad magic, unknown version or tag, truncated or trailing bytes,
// counts exceeding what the remaining bytes could possibly hold)
// returns ErrBatchCorrupt. Decoded tuples own their memory: nothing
// references the input slice after return. The tuples of one frame share
// what an edge's tuples have in common — one Stream string while it
// repeats, one slab behind their Values slices — and nothing else:
// every string and byte value is its own copy, so a bolt that keeps a
// key does not keep the frame.
func DecodeTupleBatch(data []byte) ([]Tuple, TrafficClass, error) {
	r := &batchReader{data: data}
	if len(data) < 4 || data[0] != batchMagic0 || data[1] != batchMagic1 {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrBatchCorrupt)
	}
	if data[2] != batchVersion {
		return nil, 0, fmt.Errorf("%w: unsupported version %d", ErrBatchCorrupt, data[2])
	}
	class := TrafficClass(data[3])
	if class != ClassIngest && class != ClassReplay {
		return nil, 0, fmt.Errorf("%w: unknown class %d", ErrBatchCorrupt, data[3])
	}
	r.off = 4
	count, err := r.uvarint()
	if err != nil {
		return nil, 0, err
	}
	// A tuple encodes to at least 3 bytes (empty stream, zero ts, zero
	// values), so a count beyond remaining/3 cannot be satisfied — cap
	// before allocating.
	if count > uint64(r.remaining())/3+1 {
		return nil, 0, fmt.Errorf("%w: implausible tuple count %d", ErrBatchCorrupt, count)
	}
	var tuples []Tuple
	if count > 0 {
		tuples = make([]Tuple, count)
	}
	var slab []any
	for i := range tuples {
		t := &tuples[i]
		sb, err := r.lenBytes()
		if err != nil {
			return nil, 0, err
		}
		if i > 0 && tuples[i-1].Stream == string(sb) {
			t.Stream = tuples[i-1].Stream
		} else {
			t.Stream = string(sb)
		}
		if t.Ts, err = r.varint(); err != nil {
			return nil, 0, err
		}
		nv, err := r.uvarint()
		if err != nil {
			return nil, 0, err
		}
		// A value encodes to at least one byte.
		if nv > uint64(r.remaining()) {
			return nil, 0, fmt.Errorf("%w: implausible value count %d", ErrBatchCorrupt, nv)
		}
		if nv == 0 {
			continue
		}
		if uint64(cap(slab)-len(slab)) < nv {
			// Size the slab for the tuples left as if they all looked like
			// this one, which on an edge they do.
			slab = make([]any, 0, min(nv*uint64(len(tuples)-i), uint64(r.remaining())))
		}
		end := len(slab) + int(nv)
		t.Values = slab[len(slab):end:end]
		slab = slab[:end]
		for j := range t.Values {
			if t.Values[j], err = decodeValue(r); err != nil {
				return nil, 0, err
			}
		}
	}
	if r.remaining() != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrBatchCorrupt, r.remaining())
	}
	return tuples, class, nil
}

func decodeValue(r *batchReader) (any, error) {
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case valNil:
		return nil, nil
	case valString:
		b, err := r.lenBytes()
		if err != nil {
			return nil, err
		}
		return string(b), nil
	case valBytes:
		b, err := r.lenBytes()
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), b...), nil
	case valInt:
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		return int(v), nil
	case valInt64:
		return r.varint()
	case valUint64:
		return r.uvarint()
	case valFloat64:
		b, err := r.bytes(8)
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.BigEndian.Uint64(b)), nil
	case valTrue:
		return true, nil
	case valFalse:
		return false, nil
	case valGob:
		b, err := r.lenBytes()
		if err != nil {
			return nil, err
		}
		var g gobValue
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&g); err != nil {
			return nil, fmt.Errorf("%w: gob value: %v", ErrBatchCorrupt, err)
		}
		return g.V, nil
	default:
		return nil, fmt.Errorf("%w: unknown value tag %d", ErrBatchCorrupt, tag)
	}
}
