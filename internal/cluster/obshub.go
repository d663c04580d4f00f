package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"sr3/internal/obs"
	"sr3/internal/simnet"
)

// obsHub is the seed's distributed-observability aggregation point. It
// stitches per-process span collections into connected traces (every
// process mints span IDs from a disjoint obs.IDBase range, so merging is
// a dedup, not a rewrite) and merges per-process flight-recorder
// journals into one causally ordered post-mortem timeline — the cluster
// analogue of Supervisor.PostMortem.
type obsHub struct {
	node *Node

	mu     sync.Mutex
	col    *obs.Collector
	seen   map[[2]uint64]bool // (trace, span) already imported
	lastPM []byte             // last auto-triggered post-mortem dump
}

func newObsHub(n *Node) *obsHub {
	return &obsHub{node: n, col: obs.NewCollector(), seen: map[[2]uint64]bool{}}
}

// importSpans merges one member's binary span batch, tagging every new
// span with its origin node (how a stitched trace shows which process
// observed each phase).
func (h *obsHub) importSpans(node string, b []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(b) > 0 {
		rec, rest, err := obs.DecodeSpanRecord(b)
		if err != nil {
			h.node.logf("obshub: corrupt span batch from %s: %v", node, err)
			return
		}
		b = rest
		key := [2]uint64{rec.Trace, rec.Span}
		if h.seen[key] {
			continue
		}
		h.seen[key] = true
		rec.Attrs = append(rec.Attrs, obs.Str("node", node))
		h.col.OnSpan(rec)
	}
}

// collectDumps fetches the observability journal (flight ring + span
// batch) from every live member, the seed itself included, with one
// fan-out, ordered by member name. Unreachable members are skipped: a
// post-mortem of a failed recovery must work with whatever survived.
func (h *obsHub) collectDumps() []obsDumpResp {
	dumps := pull[obsDumpResp](h.node, simnet.Message{Kind: kindObsDump, Payload: &obsDumpReq{}})
	sort.Slice(dumps, func(i, j int) bool { return dumps[i].Node < dumps[j].Node })
	return dumps
}

// stitchAll pulls every live member's spans into the hub — run on demand
// by the /debug/sr3/trace handler, so the merged view is as fresh as the
// request.
func (h *obsHub) stitchAll() {
	for _, d := range h.collectDumps() {
		h.importSpans(d.Node, d.Spans)
	}
}

// writeTraces renders the stitched span set as JSONL.
func (h *obsHub) writeTraces(w io.Writer) error {
	h.stitchAll()
	return h.col.WriteJSONL(w)
}

// pmEntry is one post-mortem timeline line. At is the causally lifted
// timestamp the timeline sorts by (see mergeTimeline).
type pmEntry struct {
	At   int64  `json:"at"`
	Node string `json:"node"`
	Type string `json:"type"` // "span" | "flight"
	// Span fields.
	Trace  uint64 `json:"trace,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Phase  string `json:"phase,omitempty"`
	DurNs  int64  `json:"dur_ns,omitempty"`
	// Flight fields.
	Seq    uint64 `json:"seq,omitempty"`
	Kind   string `json:"kind,omitempty"`
	App    string `json:"app,omitempty"`
	Detail string `json:"detail,omitempty"`
	Err    string `json:"err,omitempty"`
}

// mergeTimeline merges per-node journals into one ordered timeline.
// Ordering is causal first, wall-clock second: within a trace, every
// span's timestamp is lifted to at least its parent's lifted timestamp
// (a child observed on a skew-behind node cannot sort before the parent
// that caused it), then all entries — spans and flight events — sort by
// lifted timestamp with (node, seq/span) as the deterministic
// tiebreaker. Pure function, unit-tested directly.
func mergeTimeline(dumps []obsDumpResp) []pmEntry {
	type spanKey struct {
		trace, span uint64
	}
	spans := map[spanKey]obs.SpanRecord{}
	owner := map[spanKey]string{}
	var order []spanKey
	for _, d := range dumps {
		b := d.Spans
		for len(b) > 0 {
			rec, rest, err := obs.DecodeSpanRecord(b)
			if err != nil {
				break // keep what decoded; a truncated journal is still a journal
			}
			b = rest
			k := spanKey{rec.Trace, rec.Span}
			if _, dup := spans[k]; !dup {
				spans[k] = rec
				owner[k] = d.Node
				order = append(order, k)
			}
		}
	}
	// Lift: eff(span) = max(Start, eff(parent)+1), memoized per span. The
	// +1ns nudge makes the lift strictly monotone down a span chain, so a
	// parent always sorts before its children even when clock skew
	// collapses them onto the same lifted instant.
	eff := map[spanKey]int64{}
	var lift func(k spanKey, depth int) int64
	lift = func(k spanKey, depth int) int64 {
		if v, ok := eff[k]; ok {
			return v
		}
		rec := spans[k]
		v := rec.Start
		if rec.Parent != 0 && depth < 64 { // depth cap guards a cyclic corruption
			pk := spanKey{rec.Trace, rec.Parent}
			if _, ok := spans[pk]; ok {
				if pv := lift(pk, depth+1) + 1; pv > v {
					v = pv
				}
			}
		}
		eff[k] = v
		return v
	}
	var out []pmEntry
	for _, k := range order {
		rec := spans[k]
		out = append(out, pmEntry{
			At: lift(k, 0), Node: owner[k], Type: "span",
			Trace: rec.Trace, Span: rec.Span, Parent: rec.Parent,
			Phase: rec.Phase, DurNs: rec.Duration(),
		})
	}
	for _, d := range dumps {
		for _, ev := range d.Flight {
			e := pmEntry{
				At: ev.At, Node: d.Node, Type: "flight",
				Seq: ev.Seq, Kind: ev.Kind, App: ev.App,
				Detail: ev.Detail, Err: ev.Err,
			}
			if ev.Node != "" && ev.Node != d.Node {
				e.Detail = joinDetail(e.Detail, "about="+ev.Node)
			}
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Type != b.Type {
			return a.Type < b.Type // flight before span on exact ties
		}
		if a.Type == "flight" {
			return a.Seq < b.Seq
		}
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		return a.Span < b.Span
	})
	return out
}

func joinDetail(a, b string) string {
	if a == "" {
		return b
	}
	return a + " " + b
}

// postMortem collects every member's journal and renders the merged
// timeline as ndjson: a header line naming the reason, then one line per
// entry. The dump is retained for /debug/sr3/postmortem?last=1 and
// marked in the seed's own flight ring.
func (h *obsHub) postMortem(reason string) []byte {
	dumps := h.collectDumps()
	entries := mergeTimeline(dumps)
	var buf bytes.Buffer
	hdr := map[string]any{
		"type":    "postmortem",
		"reason":  reason,
		"seed":    h.node.cfg.Name,
		"nodes":   len(dumps),
		"entries": len(entries),
		"at":      time.Now().UnixNano(),
	}
	enc := json.NewEncoder(&buf)
	_ = enc.Encode(hdr)
	for _, e := range entries {
		_ = enc.Encode(e)
	}
	out := buf.Bytes()
	h.mu.Lock()
	h.lastPM = out
	h.mu.Unlock()
	h.node.flight.Note(obs.FlightDumpMark, "", "", "cluster post-mortem: "+reason, nil)
	h.node.logf("post-mortem (%s): %d entries from %d nodes", reason, len(entries), len(dumps))
	return out
}

// lastPostMortem returns the most recent auto-triggered dump (nil when
// none has fired).
func (h *obsHub) lastPostMortem() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastPM
}

// localObsDump is what this node answers cluster.obsdump with.
func (n *Node) localObsDump() obsDumpResp {
	return obsDumpResp{
		Node:   n.cfg.Name,
		Flight: n.flight.Events(),
		Spans:  n.spans.ExportBinary(),
	}
}
