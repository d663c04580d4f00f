// Package kinds holds the three component kinds the benchmark adds to the
// stock daemon through cluster.RegisterSpout/RegisterBolt: the load
// generator (spout.bench), a keyed aggregate whose state size is set by
// keys × value_bytes (bolt.benchstate), and an O(keys) exactly-once
// checker with a latency histogram (bolt.benchsink). The harness imports
// the same package for the reference computation and the in-process
// baseline, so the generator and the checker exist once.
package kinds

import "fmt"

// Gen is the deterministic tuple sequence of one run: the key of tuple
// seq (1-based) is a pure function of (seed, seq). Every block of Keys
// consecutive tuples touches each key exactly once, in a seed-dependent
// order that rotates from block to block, so state reaches its full size
// after Keys tuples whatever the seed.
type Gen struct {
	Keys int64
	mul  int64 // coprime with Keys: x -> x*mul is a permutation of [0,Keys)
	add  int64
	step int64
}

// NewGen derives the permutation from seed.
func NewGen(seed, keys int64) Gen {
	if keys < 1 {
		keys = 1
	}
	h := splitmix(uint64(seed))
	mul := int64(h%uint64(keys)) | 1
	for gcd(mul, keys) != 1 {
		mul += 2
	}
	h = splitmix(h)
	add := int64(h % uint64(keys))
	h = splitmix(h)
	return Gen{Keys: keys, mul: mul % keys, add: add, step: int64(h % uint64(keys))}
}

// KeyID is the key index in [0,Keys) of tuple seq (1-based).
func (g Gen) KeyID(seq int64) int64 {
	i := seq - 1
	block, x := i/g.Keys, i%g.Keys
	return (x*g.mul + g.add + block%g.Keys*g.step) % g.Keys
}

// Reference is the per-key count after the first emitted tuples: what an
// exactly-once pipeline must hold in bolt.benchstate, and how many
// (key, count) pairs the sink must have accepted per key.
func (g Gen) Reference(emitted int64) []int64 {
	ref := make([]int64, g.Keys)
	for seq := int64(1); seq <= emitted; seq++ {
		ref[g.KeyID(seq)]++
	}
	return ref
}

// KeyName renders a key index as the tuple's key field.
func KeyName(id int64) string { return fmt.Sprintf("k%06d", id) }

// KeyIndex parses a KeyName back to its index (-1 when malformed).
func KeyIndex(name string) int64 {
	if len(name) != 7 || name[0] != 'k' {
		return -1
	}
	var n int64
	for _, c := range name[1:] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
