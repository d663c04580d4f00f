package recovery

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"sr3/internal/shard"
	"sr3/internal/state"
)

// errShardMismatch reports a fetched shard that does not belong to the
// placement being assembled (wrong version, geometry off the canonical
// split grid, or checksum failure). Callers treat it like a missing
// replica and fail over, rather than aborting the whole recovery.
var errShardMismatch = errors.New("recovery: shard does not match placement")

// assembler is the replacement-side sink of a recovery. Every shard that
// arrives is validated against the placement — app, version, split grid,
// checksum — and the first valid replica of each index is kept as it lies:
// a replica held here stays pinned, a fetched or collected body unreleased.
// Once every index is in, view lends the kept bodies in index order as the
// state's segments, and the store restores from them (Store.RestoreView):
// nothing is copied into an assembly buffer on the way. The view's release
// — or release, when the recovery fails — lets every body go.
//
// Geometry is pinned up front from the placement: shard index i of a
// state of TotalLen bytes split m ways occupies one deterministic byte
// range (the same grid shard.Split produces). A shard claiming any other
// range is rejected, which both defeats hostile offsets and makes the kept
// bodies, in index order, exactly the state.
type assembler struct {
	app     string
	version state.Version
	total   int // shard count m
	length  int // the state's bytes

	mu        sync.Mutex
	segs      [][]byte // by index: the kept bodies
	have      []bool
	releases  []func() // what lets the kept bodies go
	closed    bool     // released: nothing more is kept
	remaining int
	kept      int // indices merged
}

// newAssembler pins the assembly geometry from a placement.
func newAssembler(p shard.Placement) *assembler {
	return &assembler{
		app:       p.App,
		version:   p.Version,
		total:     p.M,
		length:    p.TotalLen,
		segs:      make([][]byte, p.M),
		have:      make([]bool, p.M),
		remaining: p.M,
	}
}

// grid returns the canonical byte range of shard index i (mirrors
// shard.Split's near-equal partition).
func (a *assembler) grid(i int) (off, n int) {
	m, l := a.total, a.length
	if l == 0 {
		return 0, 0
	}
	// Split never produces more shards than bytes; an all-empty grid only
	// happens for the l==0 case above.
	base, rem := l/m, l%m
	if i < rem {
		return i * (base + 1), base + 1
	}
	return rem*(base+1) + (i-rem)*base, base
}

// check validates one shard against the placement.
func (a *assembler) check(s shard.Shard) error {
	if s.App != a.app || s.Version != a.version || s.Total != a.total || s.TotalLen != a.length {
		return fmt.Errorf("shard %s version %v: %w", s.Key(), s.Version, errShardMismatch)
	}
	if s.Index < 0 || s.Index >= a.total {
		return fmt.Errorf("shard index %d of %d: %w", s.Index, a.total, errShardMismatch)
	}
	off, n := a.grid(s.Index)
	if s.Offset != off || len(s.Data) != n {
		return fmt.Errorf("shard %s range [%d,%d) off the split grid [%d,%d): %w",
			s.Key(), s.Offset, s.Offset+len(s.Data), off, off+n, errShardMismatch)
	}
	if crc32.ChecksumIEEE(s.Data) != s.Checksum {
		return fmt.Errorf("shard %s: %w: %w", s.Key(), shard.ErrChecksum, errShardMismatch)
	}
	return nil
}

// add keeps the valid shards of one received body — a fetch reply, a
// collect reply, replicas held here — whose Data alias it. release lets
// the body go: the assembler runs it when the view is released if it kept
// any of the shards, and at once otherwise (each index already in — replicas
// at one version are byte-identical by construction, enforced by the
// checksum — or none valid, or the recovery over). Returns the bytes kept
// and the first validation error; an invalid shard leaves its index
// missing for the failover ladder.
func (a *assembler) add(shards []shard.Shard, release func()) (int, error) {
	valid := make([]bool, len(shards))
	var err error
	for i, s := range shards {
		if e := a.check(s); e != nil {
			err = cmp.Or(err, e)
			continue
		}
		valid[i] = true
	}

	a.mu.Lock()
	kept := 0
	for i, s := range shards {
		if !valid[i] || a.closed || a.have[s.Index] {
			continue
		}
		a.have[s.Index] = true
		a.segs[s.Index] = s.Data
		a.remaining--
		a.kept++
		kept += len(s.Data)
		if release != nil {
			a.releases = append(a.releases, release)
			release = nil
		}
	}
	a.mu.Unlock()
	if release != nil {
		release()
	}
	return kept, err
}

// hasIndex reports whether index i has been merged.
func (a *assembler) hasIndex(i int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.have[i]
}

// missing lists the shard indices not yet merged, ascending.
func (a *assembler) missing() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []int
	for i, ok := range a.have {
		if !ok {
			out = append(out, i)
		}
	}
	return out
}

// merged returns how many shard indices have been merged.
func (a *assembler) merged() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.kept
}

// view lends the kept bodies in index order as the state, or fails with
// shard.ErrIncomplete while indices are missing. Releasing the view
// releases the assembler.
func (a *assembler) view() (state.View, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.remaining != 0 {
		return state.View{}, fmt.Errorf("have %d of %d shard indices: %w", a.total-a.remaining, a.total, shard.ErrIncomplete)
	}
	return state.NewView(a.segs, a.release), nil
}

// release lets every kept body go, and keeps nothing from then on — a
// fetch still in flight releases its own body.
func (a *assembler) release() {
	a.mu.Lock()
	releases := a.releases
	a.releases, a.closed = nil, true
	a.mu.Unlock()
	for _, f := range releases {
		f()
	}
}
