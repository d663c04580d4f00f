package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// recorder is the harness's own span recorder for a traced run: spans are
// kept in memory and written as JSON lines when the run ends. A nil
// recorder (untraced run) records nothing, so call sites need no checks.
type recorder struct {
	run string // one id per run, shared by all its spans

	mu      sync.Mutex
	spans   []*span
	samples []procSample
}

type span struct {
	ID     int     `json:"span"`
	Parent int     `json:"parent,omitempty"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	SelfMs float64 `json:"self_ms"`
}

// procSample is one 1 Hz reading of a node process.
type procSample struct {
	Run    string  `json:"run"`
	Sample string  `json:"sample"` // node name
	AtNs   int64   `json:"at_ns"`
	CPUSec float64 `json:"cpu_s"`
	RSSMB  float64 `json:"rss_mb"`
	RChar  int64   `json:"rchar"`
}

func newRecorder(run string) *recorder { return &recorder{run: run} }

// start opens a span under parent (nil for a root).
func (r *recorder) start(parent *span, name string) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &span{ID: len(r.spans) + 1, Run: r.run, Name: name, Start: time.Now().UnixNano()}
	if parent != nil {
		s.Parent = parent.ID
	}
	r.spans = append(r.spans, s)
	return s
}

// record adds a span whose bounds were observed rather than bracketed
// (kill -> detect, kill -> recover).
func (r *recorder) record(parent *span, name string, from, to time.Time) {
	if s := r.start(parent, name); s != nil {
		s.Start, s.End = from.UnixNano(), to.UnixNano()
	}
}

func (s *span) end() {
	if s != nil {
		s.End = time.Now().UnixNano()
	}
}

func (s *span) ms() float64 {
	if s == nil {
		return 0
	}
	return float64(s.End-s.Start) / 1e6
}

func (r *recorder) sample(ps procSample) {
	if r == nil {
		return
	}
	ps.Run = r.run
	r.mu.Lock()
	r.samples = append(r.samples, ps)
	r.mu.Unlock()
}

// write stores every span, with its self time (its duration minus the
// time its children cover), then every sample, one JSON object per line.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := map[int]int64{}
	for _, s := range r.spans {
		child[s.Parent] += s.End - s.Start
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		s.SelfMs = float64(s.End-s.Start-child[s.ID]) / 1e6
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, ps := range r.samples {
		if err := enc.Encode(ps); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
