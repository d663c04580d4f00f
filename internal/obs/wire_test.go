package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func sampleRecords() []SpanRecord {
	return []SpanRecord{
		{Trace: 1, Span: 1, Parent: 0, Phase: PhaseSelfHeal, Start: 10, End: 500},
		{Trace: 1, Span: 2, Parent: 1, Phase: PhaseDetect, Start: 10, End: 40,
			Attrs: []Attr{{Key: "peer", Str: "n7"}, {Key: "probes", Int: 13}}},
		{Trace: 1, Span: 3, Parent: 1, Phase: PhaseFetch, Start: -5, End: -1,
			Attrs: []Attr{{Key: "err", Str: "timeout", Int: -42}}},
		{Trace: ^uint64(0), Span: ^uint64(0), Parent: ^uint64(0) - 1, Phase: "",
			Start: -1 << 62, End: 1 << 62},
	}
}

// TestWireRoundtrip: encode a batch, decode it back, field-for-field.
func TestWireRoundtrip(t *testing.T) {
	recs := sampleRecords()
	var buf []byte
	for _, r := range recs {
		buf = AppendSpanRecord(buf, r)
	}
	rest := buf
	for i, want := range recs {
		got, r, err := DecodeSpanRecord(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		rest = r
		if got.Trace != want.Trace || got.Span != want.Span || got.Parent != want.Parent ||
			got.Phase != want.Phase || got.Start != want.Start || got.End != want.End {
			t.Fatalf("record %d header mismatch:\ngot  %+v\nwant %+v", i, got, want)
		}
		if len(got.Attrs) != len(want.Attrs) {
			t.Fatalf("record %d: %d attrs, want %d", i, len(got.Attrs), len(want.Attrs))
		}
		for j := range want.Attrs {
			if got.Attrs[j] != want.Attrs[j] {
				t.Fatalf("record %d attr %d: %+v != %+v", i, j, got.Attrs[j], want.Attrs[j])
			}
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding the batch", len(rest))
	}
}

// TestWireTruncation: every prefix of a valid record must decode to a
// clean error, never a panic or a silently-short record.
func TestWireTruncation(t *testing.T) {
	full := AppendSpanRecord(nil, sampleRecords()[1])
	for cut := 0; cut < len(full); cut++ {
		_, _, err := DecodeSpanRecord(full[:cut])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

// TestWireVersionAndBounds: bad version and oversized fields must map to
// their sentinel errors.
func TestWireVersionAndBounds(t *testing.T) {
	if _, _, err := DecodeSpanRecord([]byte{99}); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("version 99: %v", err)
	}

	// A phase-length claim beyond maxPhaseLen with enough bytes present
	// must trip the bounds check, not allocate.
	bad := []byte{wireVersion, 1, 1, 0, 255, 255, 3} // uvarint 65535 phase len
	bad = append(bad, bytes.Repeat([]byte{'x'}, 70000)...)
	if _, _, err := DecodeSpanRecord(bad); !errors.Is(err, ErrWireBounds) {
		t.Fatalf("oversized phase: %v", err)
	}

	// Attr count beyond maxWireAttrs likewise.
	rec := AppendSpanRecord(nil, SpanRecord{Trace: 1, Span: 1, Phase: "p"})
	rec = rec[:len(rec)-1]    // drop the nattrs=0 byte
	rec = append(rec, 200, 1) // uvarint 200 attrs
	if _, _, err := DecodeSpanRecord(rec); !errors.Is(err, ErrWireBounds) {
		t.Fatalf("oversized attr count: %v", err)
	}
}

// TestWireEncoderCaps: the encoder itself truncates oversized inputs so
// its output always decodes.
func TestWireEncoderCaps(t *testing.T) {
	huge := SpanRecord{
		Trace: 1, Span: 2, Phase: strings.Repeat("p", maxPhaseLen+100),
		Attrs: make([]Attr, maxWireAttrs+10),
	}
	for i := range huge.Attrs {
		huge.Attrs[i] = Attr{Key: strings.Repeat("k", maxKeyLen+1), Str: strings.Repeat("v", maxStrLen+1)}
	}
	got, rest, err := DecodeSpanRecord(AppendSpanRecord(nil, huge))
	if err != nil {
		t.Fatalf("encoder produced undecodable output: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if len(got.Phase) != maxPhaseLen || len(got.Attrs) != maxWireAttrs {
		t.Fatalf("caps not applied: phase %d, attrs %d", len(got.Phase), len(got.Attrs))
	}
	if len(got.Attrs[0].Key) != maxKeyLen || len(got.Attrs[0].Str) != maxStrLen {
		t.Fatalf("attr caps not applied: key %d, str %d", len(got.Attrs[0].Key), len(got.Attrs[0].Str))
	}
}

// TestCollectorBinaryRoundtrip: ExportBinary, decoded record by record,
// must move a whole collector's spans between processes intact.
func TestCollectorBinaryRoundtrip(t *testing.T) {
	src := NewCollector()
	for _, r := range sampleRecords() {
		src.OnSpan(r)
	}
	var b []SpanRecord
	for rest := src.ExportBinary(); len(rest) > 0; {
		rec, next, err := DecodeSpanRecord(rest)
		if err != nil {
			t.Fatal(err)
		}
		b, rest = append(b, rec), next
	}
	a := src.Spans()
	if len(a) != len(b) {
		t.Fatalf("span count %d != %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Span != b[i].Span || a[i].Phase != b[i].Phase || len(a[i].Attrs) != len(b[i].Attrs) {
			t.Fatalf("span %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if _, _, err := DecodeSpanRecord([]byte{7}); err == nil {
		t.Fatal("garbage record decoded")
	}
}

// FuzzDecodeSpanRecord: the decoder must never panic, never over-read,
// and anything it accepts must re-encode to something it accepts again.
func FuzzDecodeSpanRecord(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(AppendSpanRecord(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	f.Add([]byte{99, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, rest, err := DecodeSpanRecord(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("decoder returned more bytes than it was given")
		}
		if len(rec.Phase) > maxPhaseLen || len(rec.Attrs) > maxWireAttrs {
			t.Fatalf("accepted record exceeds bounds: %+v", rec)
		}
		// Re-encode and re-decode: accepted records are stable.
		again, rest2, err := DecodeSpanRecord(AppendSpanRecord(nil, rec))
		if err != nil {
			t.Fatalf("re-decode of accepted record failed: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-encode produced trailing bytes")
		}
		if again.Trace != rec.Trace || again.Span != rec.Span || again.Phase != rec.Phase ||
			again.Start != rec.Start || again.End != rec.End {
			t.Fatalf("re-encode not stable: %+v vs %+v", again, rec)
		}
	})
}
