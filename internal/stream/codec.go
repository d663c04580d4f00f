package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"unsafe"
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
	v, n := uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, ErrBatchCorrupt
	}
	r.off += n
	return v, nil
}

func (r *batchReader) varint() (int64, error) {
	ux, err := r.uvarint()
	v := int64(ux >> 1) // zigzag, as binary.Varint
	if ux&1 != 0 {
		v = ^v
	}
	return v, err
}

// uvarint is binary.Uvarint, results included, reading a varint of up
// to nine bytes — a nanosecond timestamp takes nine — from one
// eight-byte load instead of a byte at a time.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	if len(b) < 9 {
		return binary.Uvarint(b)
	}
	w := binary.LittleEndian.Uint64(b)
	n := 9
	if stop := ^w & 0x8080808080808080; stop != 0 {
		n = bits.TrailingZeros64(stop)/8 + 1
		w &= ^uint64(0) >> (64 - 8*n)
	} else if b[8] >= 0x80 {
		return binary.Uvarint(b)
	}
	// Drop the continuation bits: the seven-bit groups close up.
	x := w&0x7f | w>>1&(0x7f<<7) | w>>2&(0x7f<<14) | w>>3&(0x7f<<21) |
		w>>4&(0x7f<<28) | w>>5&(0x7f<<35) | w>>6&(0x7f<<42) | w>>7&(0x7f<<49)
	if n == 9 {
		x |= uint64(b[8]) << 56
	}
	return x, n
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

// TupleDecoder decodes the frames of one tuple stream — one flow
// connection — and keeps what its frames have in common from one to the
// next: the tuple slice it decodes into, and, once it decodes a stream
// (DecodeRuns), the short string values it has seen lately, each interned
// and boxed once. The other values of a run of tuples are allocated for
// that run alone: its Values slices are cut from shared slabs, and its
// numbers are boxed out of slabs of words. Nothing a decoded tuple holds
// references the input frame, so the caller can recycle the frame's
// buffer once the decode returns. A TupleDecoder is not safe for
// concurrent use; its zero value is ready.
type TupleDecoder struct {
	tuples []Tuple
	used   int          // tuples the last decode handed out
	strs   []internSlot // interned strings by set (intern); nil: none
	victim uint         // turns through a set's slots, so a set evicts round-robin
}

// internSlot is one interned string, boxed, and its hash.
type internSlot struct {
	hash uint64
	str  any
}

// slabBytes bounds one Values or word slab, so a slab is a small object
// and a bolt that keeps one value keeps at most 32 KiB, however large the
// frame it came in.
const slabBytes = 32 << 10

// The intern cache holds strings of at most internMaxLen bytes: a key or
// a stream name repeats, a long text rarely does. It is internCap slots
// in sets of internWays, a string's set picked by its hash; a set that
// is full forgets one of its strings, round-robin. It pays off only
// while a stream repeats at most about internCap distinct short strings:
// an edge keyed by 64 keys always hits, one cycling through 4096 keys
// rarely does. A miss costs what no cache would (the string and its box)
// plus the hash and internWays hash compares, and nothing is allocated
// for the cache but its one table.
const (
	internSetBits = 8
	internWays    = 4
	internCap     = internWays << internSetBits
	internMaxLen  = 64
)

// DecodeTupleBatch decodes one frame, returning the tuples and the
// frame's traffic class. Decoding is strict — any structural anomaly (bad
// magic, unknown version or tag, truncated or trailing bytes, counts
// exceeding what the remaining bytes could possibly hold) returns
// ErrBatchCorrupt and no tuple. The slice is fresh and the caller's. It
// runs TupleDecoder's body as one run through a decoder of its own,
// which interns nothing: a cache for one frame would cost more than it
// saves.
func DecodeTupleBatch(data []byte) ([]Tuple, TrafficClass, error) {
	return new(TupleDecoder).decodeFrame(data)
}

// decodeFrame decodes one frame as one run, handed over only once all of
// it has been read; the slice is the decoder's, valid until it decodes
// again.
func (d *TupleDecoder) decodeFrame(data []byte) ([]Tuple, TrafficClass, error) {
	var out []Tuple
	class, err := d.decode(data, 0, func(run []Tuple, _ TrafficClass) error {
		out = run
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, class, nil
}

// DecodeRuns decodes one frame at most decodeRun tuples at a time,
// handing each run and the frame's traffic class to fn before it decodes
// the next run into the same slice; fn's error ends the decode and is
// returned. Decoding is as strict as DecodeTupleBatch's, and what the
// decoder holds is bounded by a run however large the frame: its slice
// and one run's slabs. The tuples of a run — their Values slices and
// every value — are the caller's to keep, the slice only until fn
// returns. A kept string value is its own allocation (interned or not),
// so a bolt that keeps a key keeps neither the frame nor a slab. The last
// run is handed over only once the whole frame has been read; a frame
// that proves corrupt after some runs were handed over returns
// ErrBatchCorrupt then, as a stream that breaks mid-frame would. The
// first DecodeRuns starts the decoder's intern cache.
func (d *TupleDecoder) DecodeRuns(data []byte, fn func([]Tuple, TrafficClass) error) error {
	if d.strs == nil {
		d.strs = make([]internSlot, internCap)
	}
	_, err := d.decode(data, decodeRun, fn)
	return err
}

// decodeRun bounds a run of DecodeRuns.
const decodeRun = 256

// decode is decodeFrame's and DecodeRuns' one body; maxRun 0 is the
// whole frame as one run.
func (d *TupleDecoder) decode(data []byte, maxRun int, fn func([]Tuple, TrafficClass) error) (TrafficClass, error) {
	r := &batchReader{data: data}
	if len(data) < 4 || data[0] != batchMagic0 || data[1] != batchMagic1 {
		return 0, fmt.Errorf("%w: bad magic", ErrBatchCorrupt)
	}
	if data[2] != batchVersion {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBatchCorrupt, data[2])
	}
	class := TrafficClass(data[3])
	if class != ClassIngest && class != ClassReplay {
		return 0, fmt.Errorf("%w: unknown class %d", ErrBatchCorrupt, data[3])
	}
	r.off = 4
	count, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	// A tuple encodes to at least 3 bytes (empty stream, zero ts, zero
	// values), so a count beyond remaining/3 cannot be satisfied — cap
	// before allocating.
	if count > uint64(r.remaining())/3+1 {
		return 0, fmt.Errorf("%w: implausible tuple count %d", ErrBatchCorrupt, count)
	}
	if count == 0 {
		return class, d.end(r, 0)
	}
	run := int(count)
	if maxRun > 0 {
		run = min(run, maxRun)
	}
	if cap(d.tuples) < run {
		d.tuples, d.used = make([]Tuple, run), 0
	}
	for left := int(count); left > 0; {
		tuples := d.tuples[:min(left, run)]
		d.used = max(d.used, len(tuples)) // what a failed decode leaves, end clears
		if err := d.decodeTuples(r, tuples); err != nil {
			return 0, err
		}
		if left -= len(tuples); left == 0 {
			if err := d.end(r, len(tuples)); err != nil {
				return 0, err
			}
		}
		if err := fn(tuples, class); err != nil {
			return 0, err
		}
	}
	return class, nil
}

// decodeTuples decodes the next len(tuples) tuples of a frame into
// tuples. Their Values are cut from slabs sized for these tuples.
func (d *TupleDecoder) decodeTuples(r *batchReader, tuples []Tuple) error {
	var slab []any
	var words []uint64
	for i := range tuples {
		t := &tuples[i]
		sb, err := r.lenBytes()
		if err != nil {
			return err
		}
		if i > 0 && tuples[i-1].Stream == string(sb) {
			t.Stream = tuples[i-1].Stream
		} else {
			t.Stream = d.intern(sb).(string)
		}
		if t.Ts, err = r.varint(); err != nil {
			return err
		}
		nv, err := r.uvarint()
		if err != nil {
			return err
		}
		// A value encodes to at least one byte.
		if nv > uint64(r.remaining()) {
			return fmt.Errorf("%w: implausible value count %d", ErrBatchCorrupt, nv)
		}
		if nv == 0 {
			t.Values = nil
			continue
		}
		left := uint64(len(tuples) - i)
		if uint64(cap(slab)-len(slab)) < nv {
			// Size the slab for the tuples left as if they all looked like
			// this one, which on an edge they do, up to slabBytes.
			slab = make([]any, 0, max(nv, min(nv*left, uint64(r.remaining()), slabBytes/16)))
		}
		end := len(slab) + int(nv)
		t.Values = slab[len(slab):end:end]
		slab = slab[:end]
		for j := range t.Values {
			tag, err := r.byte()
			if err != nil {
				return err
			}
			if tag < valInt || tag > valFloat64 {
				if t.Values[j], err = d.value(r, tag); err != nil {
					return err
				}
				continue
			}
			if len(words) == cap(words) {
				// Likewise: the values from here to the end of this
				// tuple, for every tuple left; a number takes two bytes
				// or more.
				words = make([]uint64, 0, min((nv-uint64(j))*left, uint64(r.remaining())/2+1, slabBytes/8))
			}
			words = words[:len(words)+1]
			w := &words[len(words)-1]
			if t.Values[j], err = number(r, tag, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// end checks that the frame was consumed exactly and drops what the
// previous frame's tuples past this one's still referenced.
func (d *TupleDecoder) end(r *batchReader, n int) error {
	if d.used > n {
		clear(d.tuples[n:d.used])
	}
	d.used = n
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBatchCorrupt, r.remaining())
	}
	return nil
}

// intern returns b as a boxed string, from the cache when it is there.
func (d *TupleDecoder) intern(b []byte) any {
	if d.strs == nil || len(b) > internMaxLen {
		return string(b)
	}
	h := uint64(14695981039346656037) // FNV-1a
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	// The top bits of a Fibonacci product pick the set: they depend on
	// every bit of h, where h's own bits above the low ones barely depend
	// on the last bytes.
	i := int((h*0x9e3779b97f4a7c15)>>(64-internSetBits)) * internWays
	set := d.strs[i : i+internWays]
	for j := range set {
		if set[j].hash == h {
			if s, ok := set[j].str.(string); ok && s == string(b) {
				return set[j].str
			}
		}
	}
	v := any(string(b))
	d.victim++
	set[d.victim%internWays] = internSlot{hash: h, str: v}
	return v
}

// value decodes one value of a tag outside the numbers.
func (d *TupleDecoder) value(r *batchReader, tag byte) (any, error) {
	switch tag {
	case valNil:
		return nil, nil
	case valString:
		b, err := r.lenBytes()
		if err != nil {
			return nil, err
		}
		return d.intern(b), nil
	case valBytes:
		b, err := r.lenBytes()
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), b...), nil
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

// number decodes a numeric value into w and returns it boxed there: the
// interface's data word points at w, where the runtime would have
// allocated a word of its own. The numeric types are all one word, so w
// holds each as its bits.
func number(r *batchReader, tag byte, w *uint64) (any, error) {
	var typ unsafe.Pointer
	switch tag {
	case valInt, valInt64:
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		*w, typ = uint64(v), intType
		if tag == valInt64 {
			typ = int64Type
		}
	case valUint64:
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		*w, typ = v, uint64Type
	case valFloat64:
		b, err := r.bytes(8)
		if err != nil {
			return nil, err
		}
		*w, typ = binary.BigEndian.Uint64(b), float64Type
	}
	// Built in a stack temporary and returned by value: the caller stores
	// it with an ordinary assignment, write barrier included.
	var v any
	e := (*eface)(unsafe.Pointer(&v))
	e.typ, e.data = typ, unsafe.Pointer(w)
	return v, nil
}

// eface is the runtime's layout of an empty interface.
type eface struct {
	typ, data unsafe.Pointer
}

func typeOf(v any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&v)).typ }

var (
	intType     = typeOf(int(0))
	int64Type   = typeOf(int64(0))
	uint64Type  = typeOf(uint64(0))
	float64Type = typeOf(float64(0))
)
