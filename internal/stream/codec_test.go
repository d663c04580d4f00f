package stream

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
// exercised both by the seeds and by mutation.
func FuzzDecodeTupleBatch(f *testing.F) {
	seed, _ := EncodeTupleBatch(nil, []Tuple{
		{Stream: "src", Ts: 123, Values: []any{"w", 42, int64(-7), uint64(9), 3.14, true, []byte{1, 2}}},
		{Stream: "src", Ts: -1, Values: []any{nil, false}},
	}, ClassIngest)
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
	})
}
