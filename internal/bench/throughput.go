// Throughput benchmark: the steady-state tuple plane measured in
// tuples/sec, on two axes. The wire axis streams tuples over a
// persistent loopback TCP connection — per-tuple gob frames (the
// pre-batching inter-task codec) against EncodeTupleBatch frames on the
// chunked BatchConn data plane — and its committed artifact gates the
// headline batching speedup. The runtime axis runs the full
// rig's in-process topology (preloaded seq spout → keyed count → dedupe
// sink) on the runtime's one tuple plane, asserting the accounting and
// exactly-once invariants on the way out.
package bench

import (
	"encoding/gob"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"sr3/internal/nettransport"
	"sr3/internal/stream"
)

// ThroughputSchema versions the committed BENCH_throughput.json.
const ThroughputSchema = "sr3.bench.throughput/v1"

// Throughput cell kinds and codecs.
const (
	// ThroughputWire streams encoded tuples over loopback TCP.
	ThroughputWire = "wire"
	// ThroughputRuntime pumps the in-process topology end to end.
	ThroughputRuntime = "runtime"

	// CodecNameGob is the per-tuple gob baseline.
	CodecNameGob = "gob"
	// CodecNameBatch is the length-prefixed binary batch codec.
	CodecNameBatch = "batch"
)

// ThroughputSpeedupFloor is the committed artifact's gate: batched wire
// cells at batch >= ThroughputSpeedupBatch must beat the gob per-tuple
// baseline by at least this factor in tuples/sec (checkWireSpeedup).
const (
	ThroughputSpeedupFloor = 3.0
	ThroughputSpeedupBatch = 64
)

// ThroughputCellSpec names one cell to run.
type ThroughputCellSpec struct {
	Kind string `json:"kind"`
	// Codec selects the wire encoding (wire cells only).
	Codec string `json:"codec,omitempty"`
	// Batch is the tuples per wire frame (wire cells only; the runtime
	// sizes its own runs).
	Batch int `json:"batch,omitempty"`
	// Tuples is how many tuples the cell moves.
	Tuples int `json:"tuples"`
}

// ThroughputCell is one measured cell.
type ThroughputCell struct {
	Kind         string  `json:"kind"`
	Codec        string  `json:"codec,omitempty"`
	Batch        int     `json:"batch,omitempty"`
	Tuples       int64   `json:"tuples"`
	Seconds      float64 `json:"seconds"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	// BytesPerTuple is the on-wire footprint (wire cells only).
	BytesPerTuple float64 `json:"bytes_per_tuple,omitempty"`

	// Runtime-cell invariants: exact offered = admitted + shed ledger and
	// exactly-once execution over admitted tuples.
	AccountingExact bool `json:"accounting_exact,omitempty"`
	ExactlyOnce     bool `json:"exactly_once,omitempty"`

	Notes string `json:"notes,omitempty"`
	Error string `json:"error,omitempty"`
}

// ThroughputReport is the committed artifact.
type ThroughputReport struct {
	Schema string           `json:"schema"`
	Cells  []ThroughputCell `json:"cells"`
}

// JSON renders the report for the committed artifact.
func (r *ThroughputReport) JSON() ([]byte, error) { return marshalArtifact(r) }

// ThroughputPreset returns the cell list for a named preset: "tiny" is
// the CI smoke subset, "full" the committed sweep.
func ThroughputPreset(preset string) ([]ThroughputCellSpec, error) {
	switch preset {
	case "tiny":
		return []ThroughputCellSpec{
			{Kind: ThroughputWire, Codec: CodecNameGob, Batch: 1, Tuples: 4_000},
			{Kind: ThroughputWire, Codec: CodecNameBatch, Batch: 64, Tuples: 20_000},
			{Kind: ThroughputRuntime, Tuples: 10_000},
		}, nil
	case "full":
		return []ThroughputCellSpec{
			{Kind: ThroughputWire, Codec: CodecNameGob, Batch: 1, Tuples: 30_000},
			{Kind: ThroughputWire, Codec: CodecNameBatch, Batch: 64, Tuples: 200_000},
			{Kind: ThroughputWire, Codec: CodecNameBatch, Batch: 256, Tuples: 200_000},
			{Kind: ThroughputRuntime, Tuples: 60_000},
		}, nil
	default:
		return nil, fmt.Errorf("throughput: unknown preset %q (tiny, full)", preset)
	}
}

// ThroughputSweep runs every cell on a fresh environment.
func ThroughputSweep(specs []ThroughputCellSpec) *ThroughputReport {
	return &ThroughputReport{Schema: ThroughputSchema, Cells: sweep(specs, 0,
		func(spec ThroughputCellSpec, _ int64) (ThroughputCell, error) { return RunThroughputCell(spec) },
		func(c *ThroughputCell) *string { return &c.Error })}
}

// RunThroughputCell measures one cell.
func RunThroughputCell(spec ThroughputCellSpec) (ThroughputCell, error) {
	switch spec.Kind {
	case ThroughputWire:
		return runWireCell(spec)
	case ThroughputRuntime:
		return runRuntimeCell(spec)
	default:
		return ThroughputCell{Kind: spec.Kind}, fmt.Errorf("throughput: unknown cell kind %q", spec.Kind)
	}
}

// loopbackPair opens both ends of a fresh loopback TCP connection.
func loopbackPair() (client, server net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, aerr := ln.Accept()
		ch <- res{c, aerr}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	r := <-ch
	if r.err != nil {
		client.Close()
		return nil, nil, r.err
	}
	return client, r.c, nil
}

// runWireCell streams spec.Tuples over loopback TCP and times arrival.
// The gob baseline reproduces the pre-batching inter-task path: one gob
// frame per tuple through a persistent encoder. The batch path encodes
// spec.Batch tuples per EncodeTupleBatch frame into a reused buffer and
// ships it over the chunked BatchConn.
func runWireCell(spec ThroughputCellSpec) (ThroughputCell, error) {
	cell := ThroughputCell{Kind: spec.Kind, Codec: spec.Codec, Batch: spec.Batch, Tuples: int64(spec.Tuples)}
	if spec.Tuples <= 0 {
		return cell, fmt.Errorf("throughput: wire cell needs tuples > 0")
	}
	// The rig's workload on the wire: the same keyed, sequence-numbered
	// tuples, with small deterministic timestamps.
	tuples := make([]stream.Tuple, spec.Tuples)
	for i := range tuples {
		tuples[i] = seqTuple(i, int64(i))
		tuples[i].Stream = "seq"
	}
	cw, sw, err := loopbackPair()
	if err != nil {
		return cell, err
	}
	defer cw.Close()
	defer sw.Close()

	// send writes every tuple and returns the bytes put on the wire; recv
	// runs on its own goroutine until it has decoded them all.
	var send func() (int64, error)
	var recv func() error
	switch spec.Codec {
	case CodecNameGob:
		if spec.Batch != 1 {
			return cell, fmt.Errorf("throughput: gob baseline is per-tuple (batch=1), got %d", spec.Batch)
		}
		cell.Notes = "per-tuple gob frames, persistent encoder"
		recv = func() error {
			dec := gob.NewDecoder(sw)
			for range tuples {
				var t stream.Tuple
				if err := dec.Decode(&t); err != nil {
					return err
				}
			}
			return nil
		}
		send = func() (int64, error) {
			cm := &countingConn{Conn: cw}
			enc := gob.NewEncoder(cm)
			for i := range tuples {
				if err := enc.Encode(&tuples[i]); err != nil {
					return 0, err
				}
			}
			return cm.n, nil
		}
	case CodecNameBatch:
		if spec.Batch < 2 {
			return cell, fmt.Errorf("throughput: batch cell needs batch >= 2, got %d", spec.Batch)
		}
		cell.Notes = fmt.Sprintf("%d-tuple frames over BatchConn", spec.Batch)
		recv = func() error {
			bs := nettransport.NewBatchConn(sw, 10*time.Second)
			for got := 0; got < len(tuples); {
				body, free, err := bs.ReadBatch()
				if err != nil {
					return err
				}
				decoded, _, err := stream.DecodeTupleBatch(body)
				free()
				if err != nil {
					return err
				}
				got += len(decoded)
			}
			return nil
		}
		send = func() (sent int64, err error) {
			bc := nettransport.NewBatchConn(cw, 10*time.Second)
			var frame []byte
			for off := 0; off < len(tuples); off += spec.Batch {
				end := min(off+spec.Batch, len(tuples))
				frame, err = stream.EncodeTupleBatch(frame[:0], tuples[off:end], stream.ClassIngest)
				if err != nil {
					return 0, err
				}
				if err := bc.WriteBatch(frame); err != nil {
					return 0, err
				}
				sent += int64(len(frame))
			}
			return sent, nil
		}
	default:
		return cell, fmt.Errorf("throughput: unknown codec %q", spec.Codec)
	}

	done := make(chan error, 1)
	go func() { done <- recv() }()
	start := time.Now()
	sent, err := send()
	if err != nil {
		return cell, fmt.Errorf("throughput: %s send: %w", spec.Codec, err)
	}
	if err := <-done; err != nil {
		return cell, fmt.Errorf("throughput: %s receiver: %w", spec.Codec, err)
	}
	cell.Seconds = time.Since(start).Seconds()
	cell.BytesPerTuple = float64(sent) / float64(len(tuples))
	if cell.Seconds > 0 {
		cell.TuplesPerSec = float64(cell.Tuples) / cell.Seconds
	}
	return cell, nil
}

// countingConn counts bytes written, for the on-wire footprint column.
type countingConn struct {
	net.Conn
	n int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n += int64(n)
	return n, err
}

// runRuntimeCell runs spec.Tuples preloaded tuples through the rig,
// timing start → drained, and checks the ledger and exactly-once
// invariants on the way out.
func runRuntimeCell(spec ThroughputCellSpec) (ThroughputCell, error) {
	cell := ThroughputCell{Kind: spec.Kind, Tuples: int64(spec.Tuples), Notes: "run-granular plane, spout-fed"}
	if spec.Tuples <= 0 {
		return cell, fmt.Errorf("throughput: runtime cell needs tuples > 0")
	}
	r, err := newRig(rigOpts{mechanism: mechMemory, preload: spec.Tuples})
	if err != nil {
		return cell, err
	}
	defer r.Close()
	if err := r.finish(); err != nil {
		return cell, err
	}
	cell.Seconds = time.Since(r.started).Seconds()
	if cell.Seconds > 0 {
		cell.TuplesPerSec = float64(cell.Tuples) / cell.Seconds
	}
	a, err := r.audit()
	if err != nil {
		return cell, err
	}
	cell.AccountingExact = a.ledgerExact && a.count.Shed == 0
	cell.ExactlyOnce = a.exactlyOnce()
	return cell, nil
}

// ValidateThroughput parses and schema-checks an artifact, enforcing what
// holds for any run: no failed cell, a gob per-tuple wire baseline, a
// batched wire cell at batch >= ThroughputSpeedupBatch, and a runtime cell
// whose accounting and exactly-once invariants held. The speedup between
// the two wire cells is a wall-clock ratio, gated on the committed
// artifact only (checkWireSpeedup): a tiny sweep shares its cores with
// whatever else runs.
func ValidateThroughput(blob []byte) (*ThroughputReport, error) {
	var r ThroughputReport
	if err := parseArtifact(blob, "throughput", ThroughputSchema, &r); err != nil {
		return nil, err
	}
	var runtimeCell *ThroughputCell
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Error != "" {
			return nil, fmt.Errorf("throughput artifact: cell %s/%s/b%d failed: %s", c.Kind, c.Codec, c.Batch, c.Error)
		}
		if c.TuplesPerSec <= 0 {
			return nil, fmt.Errorf("throughput artifact: cell %s/%s/b%d has no rate", c.Kind, c.Codec, c.Batch)
		}
		switch c.Kind {
		case ThroughputWire:
		case ThroughputRuntime:
			if !c.AccountingExact {
				return nil, fmt.Errorf("throughput artifact: runtime cell accounting not exact")
			}
			if !c.ExactlyOnce {
				return nil, fmt.Errorf("throughput artifact: runtime cell not exactly-once")
			}
			runtimeCell = c
		default:
			return nil, fmt.Errorf("throughput artifact: unknown cell kind %q", c.Kind)
		}
	}
	baseline, batched := r.wireCells()
	if baseline == nil {
		return nil, fmt.Errorf("throughput artifact: gob per-tuple wire baseline missing")
	}
	if batched == nil {
		return nil, fmt.Errorf("throughput artifact: batched wire cell at batch >= %d missing", ThroughputSpeedupBatch)
	}
	if runtimeCell == nil {
		return nil, fmt.Errorf("throughput artifact: runtime cell missing")
	}
	return &r, nil
}

// wireCells returns the gob per-tuple wire baseline and the fastest batched
// wire cell at batch >= ThroughputSpeedupBatch (nil when missing).
func (r *ThroughputReport) wireCells() (baseline, batched *ThroughputCell) {
	for i := range r.Cells {
		c := &r.Cells[i]
		switch {
		case c.Kind != ThroughputWire:
		case c.Codec == CodecNameGob && c.Batch == 1:
			baseline = c
		case c.Codec == CodecNameBatch && c.Batch >= ThroughputSpeedupBatch:
			if batched == nil || c.TuplesPerSec > batched.TuplesPerSec {
				batched = c
			}
		}
	}
	return baseline, batched
}

// checkWireSpeedup is the committed artifact's gate: its batched wire cell
// beats the gob baseline by ThroughputSpeedupFloor. r passed
// ValidateThroughput.
func checkWireSpeedup(r *ThroughputReport) error {
	baseline, batched := r.wireCells()
	if speedup := batched.TuplesPerSec / baseline.TuplesPerSec; speedup < ThroughputSpeedupFloor {
		return fmt.Errorf("throughput artifact: wire speedup %.2fx below the %.1fx floor (batched %.0f/s vs gob %.0f/s)",
			speedup, ThroughputSpeedupFloor, batched.TuplesPerSec, baseline.TuplesPerSec)
	}
	return nil
}

// Format renders the report as an aligned table.
func (r *ThroughputReport) Format() string { return alignMarkdown(r.Markdown()) }

// Markdown renders the sweep as a GitHub-flavored table.
func (r *ThroughputReport) Markdown() string {
	var b strings.Builder
	b.WriteString("| kind | codec | batch | tuples | tuples/sec | bytes/tuple | speedup | accounting | exactly-once | notes |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---:|:---:|:---:|---|\n")
	var gobRate float64
	for _, c := range r.Cells {
		if c.Kind == ThroughputWire && c.Codec == CodecNameGob && c.Error == "" {
			gobRate = c.TuplesPerSec
		}
	}
	for _, c := range r.Cells {
		note := c.Notes
		if c.Error != "" {
			note = "ERR " + c.Error
		}
		speedup := "—"
		if gobRate > 0 && c.Kind == ThroughputWire && c.Codec == CodecNameBatch {
			speedup = fmt.Sprintf("%.1f×", c.TuplesPerSec/gobRate)
		}
		exact, once := "—", "—"
		if c.Kind == ThroughputRuntime {
			exact, once = "✗", "✗"
			if c.AccountingExact {
				exact = "✓"
			}
			if c.ExactlyOnce {
				once = "✓"
			}
		}
		bpt, batch := "—", "—"
		if c.BytesPerTuple > 0 {
			bpt = fmt.Sprintf("%.1f", c.BytesPerTuple)
		}
		if c.Batch > 0 {
			batch = strconv.Itoa(c.Batch)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %d | %.0f | %s | %s | %s | %s | %s |\n",
			c.Kind, c.Codec, batch, c.Tuples, c.TuplesPerSec, bpt, speedup, exact, once, note)
	}
	b.WriteString("\n*wire = loopback TCP, persistent connection; speedup is batched tuples/sec over the per-tuple gob baseline; runtime cells check the exact ledger and exactly-once execution.*\n")
	return b.String()
}
