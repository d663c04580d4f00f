// The sweep loop, the artifact path and the experiment table: everything
// the artifact-producing experiments (matrix, overload) share beyond the
// rig. sr3bench, CI and the table tests all range over Artifacts, so an
// experiment is one row here.
package bench

import (
	"encoding/json"
	"fmt"
)

// sweep runs one cell per spec, each on a fresh rig with its own seed
// (base + 37·i) so chaos from one cell cannot leak into the next. A cell
// failure is recorded in the cell (errOf names the field) rather than
// aborting the sweep.
func sweep[S, C any](specs []S, base int64, run func(S, int64) (C, error), errOf func(*C) *string) []C {
	cells := make([]C, 0, len(specs))
	for i, spec := range specs {
		cell, err := run(spec, base+37*int64(i))
		if err != nil {
			*errOf(&cell) = err.Error()
		}
		cells = append(cells, cell)
	}
	return cells
}

// Report is what a sweep returns: a JSON artifact, a table for the
// terminal and one for EXPERIMENTS.md.
type Report interface {
	JSON() ([]byte, error)
	Format() string
	Markdown() string
}

// marshalArtifact is the one JSON rendering of a committed artifact.
func marshalArtifact(v any) ([]byte, error) {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// parseArtifact is the shared body of every validator's first step:
// check the envelope (schema tag, at least one cell), then decode into r.
func parseArtifact(blob []byte, name, schema string, r any) error {
	var head struct {
		Schema string            `json:"schema"`
		Cells  []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(blob, &head); err != nil {
		return fmt.Errorf("%s artifact: %w", name, err)
	}
	if head.Schema != schema {
		return fmt.Errorf("%s artifact: schema %q, want %q", name, head.Schema, schema)
	}
	if len(head.Cells) == 0 {
		return fmt.Errorf("%s artifact: no cells", name)
	}
	if err := json.Unmarshal(blob, r); err != nil {
		return fmt.Errorf("%s artifact: %w", name, err)
	}
	return nil
}

// Artifact is one artifact-producing experiment.
type Artifact struct {
	// ID is the sweep's sr3bench id; ID+"-tiny" runs the smoke preset.
	ID   string
	Desc string
	// Out is the committed artifact the "full" preset writes; TinyOut
	// the untracked file the "tiny" preset writes.
	Out, TinyOut string
	// Sweep runs a preset ("tiny" or "full").
	Sweep func(preset string) (Report, error)
	// Validate parses an artifact and enforces its acceptance gates; a
	// sweep that fails them is an error, not an artifact.
	Validate func(blob []byte) (Report, error)
	// Plot, when set, renders a validated report as the committed SVG
	// figure PlotOut (alt text PlotAlt).
	Plot             func(Report) ([]byte, error)
	PlotOut, PlotAlt string
}

// Artifacts is the experiment table.
var Artifacts = []Artifact{
	{
		ID: "matrix", Desc: "fault-recovery matrix: scenario x mechanism x load",
		Out: "BENCH_matrix.json", TinyOut: "BENCH_matrix_tiny.json",
		Sweep:    presetSweep(MatrixPreset, MatrixSweep),
		Validate: func(b []byte) (Report, error) { return ValidateMatrix(b) },
		Plot:     func(r Report) ([]byte, error) { return PlotMatrixRecovery(r.(*MatrixReport)) },
		PlotOut:  "BENCH_matrix.svg", PlotAlt: "Recovery time by mechanism × scenario",
	},
	{
		ID: "overload", Desc: "overload sweep: load past capacity with crash + retry-storm pair",
		Out: "BENCH_overload.json", TinyOut: "BENCH_overload_tiny.json",
		Sweep:    presetSweep(OverloadPreset, OverloadSweep),
		Validate: func(b []byte) (Report, error) { return ValidateOverload(b) },
		Plot:     func(r Report) ([]byte, error) { return PlotOverloadCurves(r.(*OverloadReport)) },
		PlotOut:  "BENCH_overload.svg", PlotAlt: "Overload admitted vs shed fraction",
	},
}

// presetSweep composes a preset's cell list with its sweep.
func presetSweep[S any, R Report](preset func(string) ([]S, error), run func([]S) R) func(string) (Report, error) {
	return func(name string) (Report, error) {
		specs, err := preset(name)
		if err != nil {
			return nil, err
		}
		return run(specs), nil
	}
}

// Run sweeps a preset and takes the report down the artifact path —
// marshal, validate — returning the blob to write and the parsed report.
func (a Artifact) Run(preset string) ([]byte, Report, error) {
	report, err := a.Sweep(preset)
	if err != nil {
		return nil, nil, err
	}
	blob, err := report.JSON()
	if err != nil {
		return nil, nil, err
	}
	parsed, err := a.Validate(blob)
	if err != nil {
		return nil, nil, fmt.Errorf("%w\n%s", err, report.Format())
	}
	return blob, parsed, nil
}
