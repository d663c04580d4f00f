package offheap

import (
	"bytes"
	"testing"
)

// TestUseCountsWhatItMaps: a use's live bytes rise by what Map returned and
// fall by what Unmap released, its total only rises, and a mapping is
// zeroed and writable. On the heap build, Unmap poisons the buffer so a
// reader that outlived the release sees PoisonByte.
func TestUseCountsWhatItMaps(t *testing.T) {
	u := &Use{}
	if b := u.Map(0); b != nil || u.Live() != 0 {
		t.Fatal("an empty mapping was made or counted")
	}
	b := u.Map(3 << 20)
	if len(b) != 3<<20 || cap(b) != 3<<20 || !bytes.Equal(b[:4096], make([]byte, 4096)) {
		t.Fatalf("Map(3 MiB) = len %d cap %d, not zeroed", len(b), cap(b))
	}
	b[0], b[len(b)-1] = 1, 2
	c := u.Map(5000)
	if u.Live() != 3<<20+5000 || u.Total() != 3<<20+5000 {
		t.Fatalf("live %d total %d after two mappings", u.Live(), u.Total())
	}
	u.Unmap(b)
	if u.Live() != 5000 || u.Total() != 3<<20+5000 {
		t.Fatalf("live %d total %d after an unmap", u.Live(), u.Total())
	}
	u.Unmap(c[:1]) // a release spans the capacity
	if !Mapped && !bytes.Equal(c, bytes.Repeat([]byte{PoisonByte}, len(c))) {
		t.Fatal("a buffer released on the heap build was not poisoned")
	}
	if u.Live() != 0 {
		t.Fatalf("live %d after every mapping was released", u.Live())
	}
}
