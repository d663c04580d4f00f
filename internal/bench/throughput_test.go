package bench

import (
	"strings"
	"testing"
)

// TestValidateThroughputGates pins the validator's rejection paths — the
// missing-baseline case and broken runtime invariants must fail loudly —
// and the committed artifact's speedup floor, which the validator leaves
// to checkWireSpeedup.
func TestValidateThroughputGates(t *testing.T) {
	mk := func(mut func(*ThroughputReport)) []byte {
		r := &ThroughputReport{Schema: ThroughputSchema, Cells: []ThroughputCell{
			{Kind: ThroughputWire, Codec: CodecNameGob, Batch: 1, Tuples: 100, Seconds: 1, TuplesPerSec: 1000},
			{Kind: ThroughputWire, Codec: CodecNameBatch, Batch: 64, Tuples: 100, Seconds: 1, TuplesPerSec: 10000},
			{Kind: ThroughputRuntime, Tuples: 100, Seconds: 1, TuplesPerSec: 5000,
				AccountingExact: true, ExactlyOnce: true},
		}}
		if mut != nil {
			mut(r)
		}
		blob, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	r, err := ValidateThroughput(mk(nil))
	if err != nil {
		t.Fatalf("well-formed report rejected: %v", err)
	}
	if err := checkWireSpeedup(r); err != nil {
		t.Fatalf("a 10x speedup failed the floor: %v", err)
	}
	slow, err := ValidateThroughput(mk(func(r *ThroughputReport) { r.Cells[1].TuplesPerSec = 2500 }))
	if err != nil {
		t.Fatalf("a report whose speedup is below the floor failed validation: %v", err)
	}
	if checkWireSpeedup(slow) == nil {
		t.Error("speedup below floor: the committed artifact's gate accepted it")
	}
	cases := map[string]func(*ThroughputReport){
		"baseline missing": func(r *ThroughputReport) { r.Cells[0].Codec = CodecNameBatch },
		"batched wire cell missing": func(r *ThroughputReport) {
			r.Cells[1].Batch = 8
		},
		"accounting broken":    func(r *ThroughputReport) { r.Cells[2].AccountingExact = false },
		"not exactly-once":     func(r *ThroughputReport) { r.Cells[2].ExactlyOnce = false },
		"runtime cell missing": func(r *ThroughputReport) { r.Cells = r.Cells[:2] },
		"cell error":           func(r *ThroughputReport) { r.Cells[1].Error = "boom" },
		"bad schema":           func(r *ThroughputReport) { r.Schema = "nope" },
	}
	for name, mut := range cases {
		if _, err := ValidateThroughput(mk(mut)); err == nil {
			t.Errorf("%s: validator accepted a broken artifact", name)
		}
	}
}

// TestThroughputMarkdownRenders sanity-checks the markdown renderer
// used by the matrix-report experiment.
func TestThroughputMarkdownRenders(t *testing.T) {
	r := &ThroughputReport{Schema: ThroughputSchema, Cells: []ThroughputCell{
		{Kind: ThroughputWire, Codec: CodecNameGob, Batch: 1, Tuples: 100, TuplesPerSec: 1000, BytesPerTuple: 40},
		{Kind: ThroughputWire, Codec: CodecNameBatch, Batch: 64, Tuples: 100, TuplesPerSec: 9000, BytesPerTuple: 16},
		{Kind: ThroughputRuntime, Tuples: 100, TuplesPerSec: 5000, AccountingExact: true, ExactlyOnce: true},
	}}
	md := r.Markdown()
	if !strings.Contains(md, "9.0×") {
		t.Fatalf("markdown missing speedup column:\n%s", md)
	}
	if !strings.Contains(md, "| runtime |  | — | 100 | 5000 | — | — | ✓ | ✓ |") {
		t.Fatalf("markdown runtime row malformed:\n%s", md)
	}
}
