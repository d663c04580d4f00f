package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// customPayload is an out-of-fast-set value type, exercising the gob
// fallback path of the batch codec.
type customPayload struct {
	Name string
	N    int64
}

func init() {
	gob.Register(customPayload{})
}

// gobRoundTrip is the reference semantics: what a tuple looks like
// after travelling the per-tuple gob baseline path.
func gobRoundTrip(t *testing.T, tu Tuple) Tuple {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tu); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out Tuple
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

// randomTuple draws a tuple whose value types gob can also carry, so
// the two codecs' round-trips are directly comparable.
func randomTuple(rng *rand.Rand) Tuple {
	streams := []string{"", "src", "words", "a/b/c", "sensor-φ"}
	t := Tuple{
		Stream: streams[rng.Intn(len(streams))],
		Ts:     rng.Int63n(1<<40) - 1<<39,
	}
	nv := rng.Intn(5)
	for i := 0; i < nv; i++ {
		switch rng.Intn(8) {
		case 0:
			t.Values = append(t.Values, fmt.Sprintf("w%d", rng.Intn(1000)))
		case 1:
			t.Values = append(t.Values, rng.Intn(1<<20)-1<<19)
		case 2:
			t.Values = append(t.Values, rng.Int63()-1<<62)
		case 3:
			t.Values = append(t.Values, uint64(rng.Int63()))
		case 4:
			t.Values = append(t.Values, rng.NormFloat64())
		case 5:
			t.Values = append(t.Values, rng.Intn(2) == 0)
		case 6:
			b := make([]byte, 1+rng.Intn(32))
			rng.Read(b)
			t.Values = append(t.Values, b)
		case 7:
			t.Values = append(t.Values, customPayload{Name: "c", N: rng.Int63()})
		}
	}
	return t
}

// TestBatchCodecMatchesGobSemantics is the property test: for arbitrary
// tuple sequences (random keys, payload types, traffic classes —
// including the empty and single-tuple batches), batch-encode/decode
// yields exactly the tuples the per-tuple gob baseline would deliver.
func TestBatchCodecMatchesGobSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 200; round++ {
		n := 0
		switch round {
		case 0: // empty batch
		case 1: // single-tuple batch
			n = 1
		default:
			n = rng.Intn(100)
		}
		class := ClassIngest
		if rng.Intn(2) == 1 {
			class = ClassReplay
		}
		in := make([]Tuple, n)
		for i := range in {
			in[i] = randomTuple(rng)
		}
		enc, err := EncodeTupleBatch(nil, in, class)
		if err != nil {
			t.Fatalf("round %d: encode: %v", round, err)
		}
		out, gotClass, err := DecodeTupleBatch(enc)
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		if gotClass != class {
			t.Fatalf("round %d: class = %v, want %v", round, gotClass, class)
		}
		if len(out) != len(in) {
			t.Fatalf("round %d: %d tuples decoded, want %d", round, len(out), len(in))
		}
		for i := range in {
			want := gobRoundTrip(t, in[i])
			if !reflect.DeepEqual(out[i], want) {
				t.Fatalf("round %d tuple %d:\n batch: %#v\n gob:   %#v", round, i, out[i], want)
			}
		}
	}
}

// TestBatchCodecNilValues: nil interface values survive the batch codec
// (gob cannot even encode them — the binary codec is strictly more
// general here, so this case is codec-only).
func TestBatchCodecNilValues(t *testing.T) {
	in := []Tuple{{Stream: "s", Values: []any{nil, "x", nil}}}
	enc, err := EncodeTupleBatch(nil, in, ClassReplay)
	if err != nil {
		t.Fatal(err)
	}
	out, class, err := DecodeTupleBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if class != ClassReplay || !reflect.DeepEqual(out, in) {
		t.Fatalf("round-trip = %#v (class %v)", out, class)
	}
}

// TestBatchCodecAppendsToDst: encoding extends the caller's buffer in
// place (the pooled-buffer contract).
func TestBatchCodecAppendsToDst(t *testing.T) {
	prefix := []byte("hdr")
	enc, err := EncodeTupleBatch(prefix, []Tuple{{Stream: "s"}}, ClassIngest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatal("encode did not append to dst")
	}
	if _, _, err := DecodeTupleBatch(enc[len(prefix):]); err != nil {
		t.Fatalf("decode after prefix strip: %v", err)
	}
}

// TestBatchFromHeaderAndRecords: a frame assembled from a batch header
// and records encoded one at a time — how the cluster relay builds it,
// under a class chosen at send time — is byte-identical to
// EncodeTupleBatch, and a record that fails to encode leaves the
// caller's buffer as it was.
func TestBatchFromHeaderAndRecords(t *testing.T) {
	tuples := []Tuple{
		{Stream: "a", Ts: -7, Values: []any{"k", int64(1), customPayload{Name: "x", N: 2}}},
		{Stream: "b"},
		{Stream: "a", Ts: 9, Values: []any{[]byte{1, 2}, 3.5, nil, true}},
	}
	want, err := EncodeTupleBatch(nil, tuples, ClassReplay)
	if err != nil {
		t.Fatal(err)
	}
	var recs []byte
	for i := range tuples {
		if recs, err = AppendTupleRecord(recs, &tuples[i]); err != nil {
			t.Fatal(err)
		}
	}
	hdr := AppendBatchHeader(nil, ClassReplay, len(tuples))
	if len(hdr) > BatchHeaderMax {
		t.Fatalf("header %d bytes, BatchHeaderMax %d", len(hdr), BatchHeaderMax)
	}
	if got := append(hdr, recs...); !bytes.Equal(got, want) {
		t.Fatal("header + records differ from EncodeTupleBatch")
	}

	bad := Tuple{Stream: "a", Values: []any{"fine", make(chan int)}}
	got, err := AppendTupleRecord(recs, &bad)
	if err == nil {
		t.Fatal("channel value encoded")
	}
	if len(got) != len(recs) {
		t.Fatalf("failed record left %d bytes behind", len(got)-len(recs))
	}
}

// TestDecodeTupleBatchRejectsCorruption pins the strictness contract on
// hand-built corruptions; the fuzzer explores beyond these.
func TestDecodeTupleBatchRejectsCorruption(t *testing.T) {
	valid, err := EncodeTupleBatch(nil, []Tuple{
		{Stream: "s", Ts: 7, Values: []any{"w", 1}},
	}, ClassIngest)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte("XX"), valid[2:]...),
		"unknown version": append([]byte{batchMagic0, batchMagic1, 99}, valid[3:]...),
		"unknown class":   append([]byte{batchMagic0, batchMagic1, batchVersion, 7}, valid[4:]...),
		"truncated":       valid[:len(valid)-3],
		"trailing":        append(append([]byte(nil), valid...), 0xEE),
		"header only":     valid[:4],
		"implausible count": append(append([]byte(nil), valid[:4]...),
			0xFF, 0xFF, 0xFF, 0xFF, 0x0F),
	}
	for name, data := range cases {
		if _, _, err := DecodeTupleBatch(data); !errors.Is(err, ErrBatchCorrupt) {
			t.Errorf("%s: err = %v, want ErrBatchCorrupt", name, err)
		}
	}
}

// FuzzDecodeTupleBatch: the decoder must never panic, and anything it
// accepts must re-encode and re-decode stably (same tuple count, same
// class) — truncations, corrupt length prefixes and version flips are
// exercised both by the seeds and by mutation. One TupleDecoder also
// decodes the input, another frame and the input again, and each result
// must equal a fresh decoder's, so nothing a frame leaves in the intern
// cache or the reused tuple slice shows up in the next.
func FuzzDecodeTupleBatch(f *testing.F) {
	seed, _ := EncodeTupleBatch(nil, []Tuple{
		{Stream: "src", Ts: 123, Values: []any{"w", 42, int64(-7), uint64(9), 3.14, true, []byte{1, 2}}},
		{Stream: "src", Ts: -1, Values: []any{nil, false}},
	}, ClassIngest)
	other, _ := EncodeTupleBatch(nil, []Tuple{
		{Stream: "src", Ts: 5, Values: []any{"w", "x", int64(8)}},
		{Stream: "srd", Values: []any{"wv", 3.5}},
		{Stream: "src"},
	}, ClassReplay)
	var shared TupleDecoder
	f.Add(seed)
	empty, _ := EncodeTupleBatch(nil, nil, ClassReplay)
	f.Add(empty)
	f.Add(seed[:len(seed)/2])               // truncated frame
	f.Add(append([]byte{}, 'S', 'B', 2, 0)) // future version
	corrupt := append([]byte(nil), seed...)
	corrupt[5] = 0xFF // length prefix blown up
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		tuples, class, err := DecodeTupleBatch(data)
		if err != nil {
			return
		}
		enc, err := EncodeTupleBatch(nil, tuples, class)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		tuples2, class2, err := DecodeTupleBatch(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(tuples2) != len(tuples) || class2 != class {
			t.Fatalf("unstable round-trip: %d/%v -> %d/%v",
				len(tuples), class, len(tuples2), class2)
		}
		for _, frame := range [][]byte{data, other, data} {
			got, gotClass, gotErr := shared.decodeFrame(frame)
			want, wantClass, wantErr := new(TupleDecoder).decodeFrame(frame)
			if (gotErr == nil) != (wantErr == nil) || gotClass != wantClass || !sameTuples(t, got, want) {
				t.Fatalf("a decoder that decoded other frames first disagrees with a fresh one:\n got  %v %v\n want %v %v", got, gotErr, want, wantErr)
			}
		}
		// In runs, the same tuples in the same order, or the same refusal.
		runs, runsErr := decodeInRuns(&shared, data)
		if (runsErr == nil) != (err == nil) || (runsErr == nil && !sameTuples(t, runs, tuples)) {
			t.Fatalf("DecodeRuns = %d tuples, %v; Decode = %d tuples, %v", len(runs), runsErr, len(tuples), err)
		}
	})
}

// decodeInRuns collects what DecodeRuns hands over, copied out of the
// decoder's slice run by run.
func decodeInRuns(d *TupleDecoder, frame []byte) ([]Tuple, error) {
	var out []Tuple
	err := d.DecodeRuns(frame, func(run []Tuple, _ TrafficClass) error {
		if len(run) == 0 || len(run) > decodeRun {
			return fmt.Errorf("a run of %d tuples", len(run))
		}
		out = append(out, run...)
		return nil
	})
	return out, err
}

// TestDecodeRuns: a frame of several runs' worth comes out in runs of at
// most decodeRun tuples, in order, each through the decoder's one slice;
// the caller's error ends the decode; and a frame corrupt at its end is
// refused after the runs before it were handed over, the last run never.
func TestDecodeRuns(t *testing.T) {
	const n = 3*decodeRun + 17
	frame := keyedFrame(t, n, 64, 0)
	want, _, err := DecodeTupleBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	var d TupleDecoder
	got, err := decodeInRuns(&d, frame)
	if err != nil || !sameTuples(t, got, want) {
		t.Fatalf("runs = %d tuples, %v; want the frame's %d", len(got), err, n)
	}
	if cap(d.tuples) > decodeRun {
		t.Fatalf("the decoder holds a slice of %d tuples, want at most %d", cap(d.tuples), decodeRun)
	}
	stop := errors.New("stop")
	calls := 0
	if err := d.DecodeRuns(frame, func([]Tuple, TrafficClass) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("the caller's error: %v after %d runs, want it after 1", err, calls)
	}
	corrupt := append(append([]byte(nil), frame...), 0xEE)
	got, err = decodeInRuns(&d, corrupt)
	if !errors.Is(err, ErrBatchCorrupt) || len(got) != n-n%decodeRun {
		t.Fatalf("trailing garbage: %d tuples handed over, %v; want %d, then ErrBatchCorrupt", len(got), err, n-n%decodeRun)
	}
}

// sameTuples compares decoded tuples by what they encode to, which also
// equates NaNs bit for bit.
func sameTuples(t *testing.T, a, b []Tuple) bool {
	t.Helper()
	if len(a) != len(b) {
		return false
	}
	ea, err := EncodeTupleBatch(nil, a, ClassIngest)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := EncodeTupleBatch(nil, b, ClassIngest)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ea, eb) || reflect.DeepEqual(a, b)
}

// TestDecodedValuesSurviveTheCollector: the tuples a decoder hands out
// keep every value — numbers boxed in a word slab, interned strings,
// byte copies, gob values — after the frame is scribbled over, the
// decoder is dropped and the collector has run twice and reused the
// memory it freed. Run with and without -race.
func TestDecodedValuesSurviveTheCollector(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := make([]Tuple, 400)
	for i := range in {
		if i%2 == 0 {
			in[i] = randomTuple(rng)
			continue
		}
		seq := int64(i)
		in[i] = Tuple{Stream: "source", Ts: seq, Values: []any{fmt.Sprintf("k%d", seq%16), seq, float64(seq) / 3, uint64(seq) << 40, int(-seq)}}
	}
	frame, err := EncodeTupleBatch(nil, in, ClassReplay)
	if err != nil {
		t.Fatal(err)
	}
	out := func() []Tuple {
		d := new(TupleDecoder)
		if _, err := decodeInRuns(d, frame); err != nil { // warm the intern cache
			t.Fatal(err)
		}
		tuples, err := decodeInRuns(d, frame) // copied out, as InjectBatch does
		if err != nil {
			t.Fatal(err)
		}
		return tuples
	}()
	for i := range frame {
		frame[i] = 0xA5
	}
	runtime.GC()
	runtime.GC()
	var garbage [][]byte
	for i := 0; i < 4096; i++ {
		garbage = append(garbage, bytes.Repeat([]byte{0x5A}, 8+i%64))
	}
	runtime.KeepAlive(garbage)
	for i := range in {
		if want := gobRoundTrip(t, in[i]); !reflect.DeepEqual(out[i], want) {
			t.Fatalf("tuple %d after collection:\n got  %#v\n want %#v", i, out[i], want)
		}
	}
}

// keyedFrame encodes a frame of n (key, seq) tuples on stream "source",
// the keys drawn from keys distinct names — the shape of a fields-grouped
// edge.
func keyedFrame(t testing.TB, n, keys, from int) []byte {
	t.Helper()
	tuples := make([]Tuple, n)
	for i := range tuples {
		seq := int64(from + i)
		tuples[i] = Tuple{Stream: "source", Ts: seq, Values: []any{fmt.Sprintf("k%06d", seq*7%int64(keys)), seq}}
	}
	frame, err := EncodeTupleBatch(nil, tuples, ClassIngest)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestDecodeAllocsPerFrame: a warmed decoder decodes a 32-tuple frame of
// (key from 64 keys, int64) into one Values slab and one slab of words —
// the stream name and every key come from its intern cache.
func TestDecodeAllocsPerFrame(t *testing.T) {
	frames := [][]byte{keyedFrame(t, 32, 64, 1000), keyedFrame(t, 32, 64, 1032)}
	var d TupleDecoder
	inject := func([]Tuple, TrafficClass) error { return nil }
	for _, f := range frames {
		if err := d.DecodeRuns(f, inject); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.DecodeRuns(frames[i%2], inject); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 4 {
		t.Fatalf("%.1f allocations per 32-tuple frame, want ≤ 4", allocs)
	}
}

// BenchmarkDecode decodes 32-tuple (key, int64) frames as a flow
// connection does, keys cycling through 64 or 4096 names: the intern
// cache always hits on the first and never on the second. "plain" is the
// same decoder body with no cache, what the interned case's misses are
// to be held against.
func BenchmarkDecode(b *testing.B) {
	inject := func([]Tuple, TrafficClass) error { return nil }
	for _, keys := range []int{64, 4096} {
		frames := make([][]byte, 2*4096/32) // every key twice over
		for f := range frames {
			frames[f] = keyedFrame(b, 32, keys, 32*f)
		}
		b.Run(fmt.Sprintf("keys=%d/interned", keys), func(b *testing.B) {
			var d TupleDecoder
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if err := d.DecodeRuns(frames[i%len(frames)], inject); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
		b.Run(fmt.Sprintf("keys=%d/plain", keys), func(b *testing.B) {
			var d TupleDecoder // never runs DecodeRuns: no intern cache
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if _, _, err := d.decodeFrame(frames[i%len(frames)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
	frame := keyedFrame(b, 32, 64, 1000)
	b.Run("DecodeTupleBatch", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := DecodeTupleBatch(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestUvarintMatchesBinary: the decoder's varint reader returns what
// encoding/binary's does — value and length, or the same refusal — for
// every length from one to ten bytes, truncated, overlong and at the
// ends of the range.
func TestUvarintMatchesBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var inputs [][]byte
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1 << shift, 1<<shift - 1, 1<<shift + 1, rng.Uint64() >> shift} {
			enc := binary.AppendUvarint(nil, v)
			for cut := 0; cut <= len(enc); cut++ {
				inputs = append(inputs, enc[:cut], append(enc[:cut:cut], 0x00, 0x81, 0xFF, 0x7F, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))
			}
		}
	}
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(14))
		rng.Read(b)
		inputs = append(inputs, b)
	}
	inputs = append(inputs, bytes.Repeat([]byte{0xFF}, 12), append(bytes.Repeat([]byte{0x80}, 9), 0x02))
	for _, b := range inputs {
		gv, gn := uvarint(b)
		wv, wn := binary.Uvarint(b)
		if gv != wv || gn != wn {
			t.Fatalf("uvarint(% x) = %d, %d; binary.Uvarint = %d, %d", b, gv, gn, wv, wn)
		}
	}
}
