package mem

import (
	"testing"

	"atscale/internal/arch"
)

// TestWordsEqual: Equal sees a single differing word anywhere in a chunk,
// a chunk materialized on one side only, and a different extent; stores
// built by the same writes compare equal.
func TestWordsEqual(t *testing.T) {
	p := NewPhys(arch.GB)
	defer p.Release()
	build := func() *Words {
		w := p.NewWords()
		w.Grow(4 * arch.MB)
		w.WriteWords(chunkBytes-16, []uint64{1, 2})
		w.Write64(3*arch.MB+8, 3)
		return w
	}
	a, b := build(), build()
	if !a.Equal(b) {
		t.Fatal("stores built by the same writes differ")
	}
	b.Write64(chunkBytes-8, 7) // last word of a chunk
	if a.Equal(b) {
		t.Error("a different last word of a chunk compares equal")
	}
	b.Write64(chunkBytes-8, 2)
	b.Write64(2*arch.MB, 0) // materializes a chunk holding only zeros
	if a.Equal(b) {
		t.Error("a chunk materialized on one side only compares equal")
	}
	c := build()
	c.Grow(8 * arch.MB)
	if a.Equal(c) {
		t.Error("stores of different extents compare equal")
	}
}

// TestWriteWordsStaysInChunk: WriteWords stores a run that ends exactly
// at its 4 KB chunk's end, materializing only that chunk, and refuses a
// run one word longer.
func TestWriteWordsStaysInChunk(t *testing.T) {
	p := NewPhys(arch.GB)
	defer p.Release()
	w := p.NewWords()
	w.Grow(2 * arch.MB)
	start := uint64(4*arch.KB - 3*8)
	w.WriteWords(start, []uint64{7, 8, 9})
	for i, want := range []uint64{7, 8, 9} {
		if got := w.Read64(start + uint64(8*i)); got != want {
			t.Errorf("word %d = %d, want %d", i, got, want)
		}
	}
	if w.touched != 1 {
		t.Errorf("%d chunks touched, want one", w.touched)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a run leaving its chunk")
		}
	}()
	w.WriteWords(start, []uint64{1, 2, 3, 4})
}
