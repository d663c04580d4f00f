// Package shard implements SR3's state partitioning and replication layer
// (paper §3.3 Layer 2): a state snapshot is divided into m shards, each
// replicated r times and scattered over the owner's leaf-set nodes so that
// on failure different shard replicas can rebuild the state in parallel.
//
// Shard bytes are immutable while anyone reads them: Split's shards are
// views of the snapshot it was given and Replicate's replicas share one
// view, and SplitView's shards stay in the segments of the state.View they
// were cut from, which the store does not change while the view is held.
// A holder that wants different bytes builds a new Shard.
package shard

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"sr3/internal/id"
	"sr3/internal/state"
)

// Errors.
var (
	ErrBadShardCount  = errors.New("shard: shard count must be positive")
	ErrBadReplicas    = errors.New("shard: replica count must be positive")
	ErrNotEnoughNodes = errors.New("shard: not enough nodes to place replicas on distinct peers")
	ErrIncomplete     = errors.New("shard: missing shards for reassembly")
	ErrChecksum       = errors.New("shard: checksum mismatch")
	ErrMixedState     = errors.New("shard: shards from different states")
)

// Shard is one fragment of a state snapshot. (Index, Replica) identifies
// it within the owning state; Offset/TotalLen pin its byte range so
// reassembly is self-validating.
type Shard struct {
	App      string
	Owner    id.ID
	Index    int
	Replica  int
	Total    int // number of shards the state was split into
	Offset   int
	TotalLen int
	Version  state.Version
	Checksum uint32
	Data     []byte
}

// Key identifies a shard replica within an application.
type Key struct {
	App     string
	Index   int
	Replica int
}

// Key returns the shard's placement key.
func (s Shard) Key() Key { return Key{App: s.App, Index: s.Index, Replica: s.Replica} }

// StorageKey is a string form usable as a DHT key.
func (k Key) String() string {
	return fmt.Sprintf("shard/%s/%d/%d", k.App, k.Index, k.Replica)
}

// Split divides data into m contiguous shards (replica 0). The paper's
// prototype shards the serialized hashtable by byte range; key-range
// sharding is equivalent because MapStore snapshots are key-sorted. Each
// shard's Data is a capacity-limited view of data, not a copy. Split is
// SplitView of one segment.
func Split(app string, owner id.ID, data []byte, m int, v state.Version) ([]Shard, error) {
	out, err := SplitView(app, owner, [][]byte{data}, m, v)
	for i := range out {
		off, n := out[i].Bounds()
		out[i].Data = data[off : off+n : off+n]
	}
	return out, err
}

// SplitView cuts a state lent in segments (a state.View: the state is
// their concatenation) into the shards Split would cut from the joined
// bytes — same ranges, same checksums, taken across segment boundaries —
// without joining them: every shard's Data is nil and its bytes stay
// where they are, at Bounds() of the state (AppendRange lists them).
func SplitView(app string, owner id.ID, segs [][]byte, m int, v state.Version) ([]Shard, error) {
	if m <= 0 {
		return nil, fmt.Errorf("split %q into %d: %w", app, m, ErrBadShardCount)
	}
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if m > total && total > 0 {
		m = total // never produce more shards than bytes
	}
	if total == 0 {
		m = 1
	}
	out := make([]Shard, m)
	si, so := 0, 0 // one pass over the segments: index, offset within it
	for i := range out {
		s := Shard{App: app, Owner: owner, Index: i, Total: m, TotalLen: total, Version: v}
		off, n := s.Bounds()
		s.Offset = off
		for n > 0 {
			rest := segs[si][so:]
			if len(rest) == 0 {
				si, so = si+1, 0
				continue
			}
			take := min(len(rest), n)
			s.Checksum = crc32.Update(s.Checksum, crc32.IEEETable, rest[:take])
			so, n = so+take, n-take
		}
		out[i] = s
	}
	return out, nil
}

// Bounds is the byte range [off, off+n) the shard covers in its state:
// Split's geometry, derived from TotalLen, Total and Index (the first
// TotalLen % Total shards are one byte longer).
func (s Shard) Bounds() (off, n int) {
	base, rem := s.TotalLen/s.Total, s.TotalLen%s.Total
	n = base
	if s.Index < rem {
		n++
	}
	return s.Index*base + min(s.Index, rem), n
}

// AppendRange appends to dst the pieces of segs — subslices, not copies —
// that hold bytes [off, off+n) of their concatenation.
func AppendRange(dst [][]byte, segs [][]byte, off, n int) [][]byte {
	for _, s := range segs {
		if n == 0 {
			break
		}
		if off >= len(s) {
			off -= len(s)
			continue
		}
		end := min(len(s), off+n)
		dst = append(dst, s[off:end:end])
		n -= end - off
		off = 0
	}
	return dst
}

// Replicate lists each shard r times (replica indices 0..r-1); the
// replicas of one shard share its Data.
func Replicate(shards []Shard, r int) ([]Shard, error) {
	if r <= 0 {
		return nil, fmt.Errorf("replicate ×%d: %w", r, ErrBadReplicas)
	}
	out := make([]Shard, 0, len(shards)*r)
	for _, s := range shards {
		for j := 0; j < r; j++ {
			c := s
			c.Replica = j
			out = append(out, c)
		}
	}
	return out, nil
}

// Verify checks the shard's integrity.
func (s Shard) Verify() error {
	if crc32.ChecksumIEEE(s.Data) != s.Checksum {
		return fmt.Errorf("shard %s: %w", s.Key(), ErrChecksum)
	}
	return nil
}

// Reassemble rebuilds the original snapshot from one replica of every
// shard index. Extra replicas are tolerated; conflicting state identities
// are not.
func Reassemble(shards []Shard) ([]byte, error) {
	if len(shards) == 0 {
		return nil, ErrIncomplete
	}
	ref := shards[0]
	byIndex := make(map[int]Shard, ref.Total)
	for _, s := range shards {
		if s.App != ref.App || s.Total != ref.Total || s.TotalLen != ref.TotalLen || s.Version != ref.Version {
			return nil, fmt.Errorf("shard %s vs %s: %w", s.Key(), ref.Key(), ErrMixedState)
		}
		if err := s.Verify(); err != nil {
			return nil, err
		}
		if prev, ok := byIndex[s.Index]; ok {
			if !bytes.Equal(prev.Data, s.Data) {
				return nil, fmt.Errorf("shard index %d replicas disagree: %w", s.Index, ErrMixedState)
			}
			continue
		}
		byIndex[s.Index] = s
	}
	if len(byIndex) != ref.Total {
		return nil, fmt.Errorf("have %d of %d shard indices: %w", len(byIndex), ref.Total, ErrIncomplete)
	}
	out := make([]byte, ref.TotalLen)
	filled := 0
	for i := 0; i < ref.Total; i++ {
		s := byIndex[i]
		if s.Offset+len(s.Data) > len(out) {
			return nil, fmt.Errorf("shard %s overflows state: %w", s.Key(), ErrMixedState)
		}
		copy(out[s.Offset:], s.Data)
		filled += len(s.Data)
	}
	if filled != ref.TotalLen {
		return nil, fmt.Errorf("reassembled %d of %d bytes: %w", filled, ref.TotalLen, ErrIncomplete)
	}
	return out, nil
}

// Placement records where every shard replica of one state lives — the
// paper's "list for tracking the locations of each shard".
type Placement struct {
	App      string
	Owner    id.ID
	M, R     int
	Version  state.Version
	TotalLen int
	// Epoch orders republishes WITHIN one version: a repair pass rewrites
	// the table (new owner, moved slots) without minting a new state
	// version, so readers holding several same-version copies — stale KV
	// replicas survive churn — rank them by epoch. A fresh save resets it.
	Epoch uint64
	Loc   map[Key]id.ID
}

// Supersedes reports whether this copy of a placement table is strictly
// newer than other: a newer state version always wins; within one version
// the higher repair epoch wins.
func (p Placement) Supersedes(other Placement) bool {
	if p.Version != other.Version {
		return p.Version.Newer(other.Version)
	}
	return p.Epoch > other.Epoch
}

// Place assigns each (index, replica) to a node round-robin, keeping the
// replicas of one index on distinct nodes.
func Place(app string, owner id.ID, m, r int, v state.Version, totalLen int, nodes []id.ID) (Placement, error) {
	if m <= 0 {
		return Placement{}, fmt.Errorf("place %q: %w", app, ErrBadShardCount)
	}
	if r <= 0 {
		return Placement{}, fmt.Errorf("place %q: %w", app, ErrBadReplicas)
	}
	if len(nodes) < r {
		return Placement{}, fmt.Errorf("place %q: %d nodes for %d replicas: %w", app, len(nodes), r, ErrNotEnoughNodes)
	}
	p := Placement{
		App: app, Owner: owner, M: m, R: r,
		Version: v, TotalLen: totalLen,
		Loc: make(map[Key]id.ID, m*r),
	}
	for i := 0; i < m; i++ {
		for j := 0; j < r; j++ {
			p.Loc[Key{App: app, Index: i, Replica: j}] = nodes[(i*r+j)%len(nodes)]
		}
	}
	return p, nil
}

// NodesForIndex returns the replica holders for one shard index, replica
// order.
func (p Placement) NodesForIndex(i int) []id.ID {
	out := make([]id.ID, 0, p.R)
	for j := 0; j < p.R; j++ {
		if nid, ok := p.Loc[Key{App: p.App, Index: i, Replica: j}]; ok {
			out = append(out, nid)
		}
	}
	return out
}

// Holders returns all distinct nodes in the placement, sorted.
func (p Placement) Holders() []id.ID {
	seen := make(map[id.ID]bool, len(p.Loc))
	out := make([]id.ID, 0, len(p.Loc))
	for _, nid := range p.Loc {
		if !seen[nid] {
			seen[nid] = true
			out = append(out, nid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// KeysOnNode lists the shard replicas placed on one node, sorted by
// (index, replica).
func (p Placement) KeysOnNode(nid id.ID) []Key {
	var out []Key
	for k, n := range p.Loc {
		if n == nid {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Index != out[j].Index {
			return out[i].Index < out[j].Index
		}
		return out[i].Replica < out[j].Replica
	})
	return out
}
