package state

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// GraphStore is the weighted undirected co-occurrence graph state used by
// the product-bundling application (paper Fig 1 middle): vertices are
// products, edge weights count how often two products were bought
// together.
type GraphStore struct {
	mu   sync.RWMutex
	adj  map[string]map[string]uint64
	size int
}

var _ Store = (*GraphStore)(nil)

// NewGraphStore returns an empty graph.
func NewGraphStore() *GraphStore {
	return &GraphStore{adj: make(map[string]map[string]uint64)}
}

// AddEdge increments the co-occurrence weight between a and b.
func (g *GraphStore) AddEdge(a, b string) {
	if a == b {
		return
	}
	if a > b {
		a, b = b, a
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	inner, ok := g.adj[a]
	if !ok {
		inner = make(map[string]uint64)
		g.adj[a] = inner
		g.size += len(a) + 16
	}
	if _, ok := inner[b]; !ok {
		g.size += len(b) + 8
	}
	inner[b]++
}

// Weight returns the co-occurrence count for the pair.
func (g *GraphStore) Weight(a, b string) uint64 {
	if a > b {
		a, b = b, a
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.adj[a][b]
}

// Neighbors returns b's co-purchase partners sorted by descending weight —
// the "you may also like" recommendation list.
func (g *GraphStore) Neighbors(v string) []string {
	type edge struct {
		other  string
		weight uint64
	}
	g.mu.RLock()
	var edges []edge
	for b, w := range g.adj[v] {
		edges = append(edges, edge{b, w})
	}
	for a, inner := range g.adj {
		if w, ok := inner[v]; ok {
			edges = append(edges, edge{a, w})
		}
	}
	g.mu.RUnlock()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].weight != edges[j].weight {
			return edges[i].weight > edges[j].weight
		}
		return edges[i].other < edges[j].other
	})
	out := make([]string, len(edges))
	for i, e := range edges {
		out[i] = e.other
	}
	return out
}

// EdgeCount returns the number of distinct edges.
func (g *GraphStore) EdgeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, inner := range g.adj {
		n += len(inner)
	}
	return n
}

// SizeBytes approximates the serialized size.
func (g *GraphStore) SizeBytes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.size + 8
}

// Snapshot serializes edges sorted lexicographically: deterministic.
func (g *GraphStore) Snapshot() ([]byte, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	froms := make([]string, 0, len(g.adj))
	for a := range g.adj {
		froms = append(froms, a)
	}
	sort.Strings(froms)
	buf := binary.BigEndian.AppendUint64(nil, uint64(len(froms)))
	for _, a := range froms {
		inner := g.adj[a]
		tos := make([]string, 0, len(inner))
		for b := range inner {
			tos = append(tos, b)
		}
		sort.Strings(tos)
		buf = appendBytes(buf, []byte(a))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(tos)))
		for _, b := range tos {
			buf = appendBytes(buf, []byte(b))
			buf = binary.BigEndian.AppendUint64(buf, inner[b])
		}
	}
	return buf, nil
}

// View lends the graph's Snapshot as one segment: it has no native view.
func (g *GraphStore) View() (View, error) {
	snap, err := g.Snapshot()
	return ViewOf(snap), err
}

// RestoreView restores the graph from a view, joined once when it has
// more than one segment: it has no native reader.
func (g *GraphStore) RestoreView(v View) error { return g.Restore(v.Bytes()) }

// Restore replaces the graph from a snapshot.
func (g *GraphStore) Restore(data []byte) error {
	nFrom, rest, err := readUint64(data)
	if err != nil {
		return err
	}
	adj := make(map[string]map[string]uint64, nFrom)
	size := 0
	for i := uint64(0); i < nFrom; i++ {
		var a []byte
		a, rest, err = readBytes(rest)
		if err != nil {
			return err
		}
		if len(rest) < 4 {
			return ErrTooShort
		}
		nTo := binary.BigEndian.Uint32(rest[:4])
		rest = rest[4:]
		inner := make(map[string]uint64, nTo)
		size += len(a) + 16
		for j := uint32(0); j < nTo; j++ {
			var b []byte
			b, rest, err = readBytes(rest)
			if err != nil {
				return err
			}
			if len(rest) < 8 {
				return ErrTooShort
			}
			inner[string(b)] = binary.BigEndian.Uint64(rest[:8])
			rest = rest[8:]
			size += len(b) + 8
		}
		adj[string(a)] = inner
	}
	if len(rest) != 0 {
		return fmt.Errorf("graph restore: trailing bytes: %w", ErrCorrupt)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.adj = adj
	g.size = size
	return nil
}
