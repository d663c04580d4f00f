package kinds

import (
	"encoding/binary"
	"fmt"
	"strings"

	"sr3/internal/cluster"
	"sr3/internal/state"
	"sr3/internal/stream"
)

// State is bolt.benchstate: a keyed count in a protected state.MapStore
// with the same per-(stream, key) watermark dedupe as bolt.counter, so
// relay replay and source regeneration stay exactly-once. Each key's
// value is the count padded to value_bytes, which makes the snapshot
// size keys × value_bytes however long the run is. Emits (key, count)
// carrying the input's Ts.
//
// Params: value_bytes (default 16).
type State struct {
	store *state.MapStore
	pad   int
}

const (
	countPrefix = "c|"
	wmPrefix    = "\x00wm|"
)

// NewState builds the bolt from its component declaration.
func NewState(c cluster.Component) *State {
	pad := int(c.Params["value_bytes"])
	if pad < 8 {
		pad = 16
	}
	return &State{store: state.NewMapStore(), pad: pad}
}

// Store implements stream.StatefulBolt.
func (b *State) Store() stream.StateStore { return b.store }

// Execute implements stream.Bolt.
func (b *State) Execute(t stream.Tuple, emit stream.Emit) error {
	key, seq := t.StringAt(0), t.IntAt(1)
	if key == "" || seq <= 0 {
		return fmt.Errorf("benchstate: malformed tuple %v", t)
	}
	wmKey := wmPrefix + t.Stream + "|" + key
	if seq <= b.stored(wmKey) {
		return nil // already covered by the restored state
	}
	var wm [8]byte
	binary.BigEndian.PutUint64(wm[:], uint64(seq))
	b.store.Put(wmKey, wm[:])
	cnt := b.stored(countPrefix+key) + 1
	val := make([]byte, b.pad)
	binary.BigEndian.PutUint64(val, uint64(cnt))
	b.store.Put(countPrefix+key, val)
	emit(stream.Tuple{Values: []any{key, cnt}, Ts: t.Ts})
	return nil
}

func (b *State) stored(key string) int64 {
	raw, ok := b.store.Get(key)
	if !ok || len(raw) < 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(raw))
}

// StateDigest is the aggregate's end-of-run report: every key's count,
// indexed by key id, for the comparison with Gen.Reference.
type StateDigest struct {
	StoreBytes int     `json:"store_bytes"`
	Counts     []int64 `json:"counts"`
}

// Digest walks the store.
func (b *State) Digest() StateDigest {
	d := StateDigest{StoreBytes: b.store.SizeBytes()}
	for _, k := range b.store.Keys() {
		id := int64(-1)
		if strings.HasPrefix(k, countPrefix) {
			id = KeyIndex(k[len(countPrefix):])
		}
		if id < 0 {
			continue
		}
		for int64(len(d.Counts)) <= id {
			d.Counts = append(d.Counts, 0)
		}
		d.Counts[id] = b.stored(k)
	}
	return d
}
