package mem

import "fmt"

// Words is a sparse store of 8-byte words addressed by byte offset: the
// same chunk directory as Phys, carved from the slabs of the Phys it was
// made from, but with a spine that grows on demand instead of one sized
// by a physical limit. The machine keeps each address space's program
// data in one, at offsets from the heap base, so data never passes
// through simulated physical memory.
//
// A range of words can also be deferred (Defer): its words are written
// by a generator when their chunk is first read or written, not before,
// so set-up costs only the chunks the program goes on to touch.
//
// A Words and its Phys may be used from two goroutines at once; they
// share only the slabs, and carving from those locks.
type Words struct {
	chunkDir

	// phys is the memory whose slabs w carves from. Holding it keeps them
	// mapped while w lives.
	phys *Phys
}

// NewWords returns an empty store carving from p's slabs. It covers no
// offsets until Grow extends it. p.Release unmaps what the store carved,
// so release the store first.
func (p *Phys) NewWords() *Words {
	p.checkLive()
	return &Words{chunkDir: chunkDir{spine: []*group{}, host: p.host}, phys: p}
}

// Grow extends the store to cover offsets [0, n). It never shrinks it.
func (w *Words) Grow(n uint64) {
	w.checkLive()
	if groups := (n + groupBytes - 1) >> (chunkShift + groupShift); groups > uint64(len(w.spine)) {
		w.spine = append(w.spine, make([]*group, groups-uint64(len(w.spine)))...)
	}
}

// Read64 loads the 8-byte word at offset off, which must be 8-byte
// aligned. Offsets never written, or beyond the store, read as zero,
// unless a deferral covers them. The first read of a deferred chunk
// materializes it; reads of materialized chunks never look at the
// deferrals.
//
//atlint:hotpath
func (w *Words) Read64(off uint64) uint64 { return w.read64(off) }

// Write64 stores an 8-byte word at offset off, which must be 8-byte
// aligned and inside the store.
func (w *Words) Write64(off, v uint64) { w.write64(off, v) }

// WriteWords stores ws as consecutive words from offset off, like Write64
// word by word, with one copy. The run must stay inside one 4 KB chunk.
func (w *Words) WriteWords(off uint64, ws []uint64) { w.writeWords(off, ws) }

// Equal reports whether w and v cover the same offsets, materialize the
// same chunks and hold the same words, like Phys.Equal's data check.
// Pending deferrals are not compared.
func (w *Words) Equal(v *Words) bool {
	w.checkLive()
	v.checkLive()
	return w.chunkDir.equal(&v.chunkDir)
}

// Defer makes gen the contents of the n words from offset off, which
// must be 8-byte aligned and inside the store, as if they were written
// now, but writes only the chunks already materialized. Every other chunk
// of the range gets its words when it is first read or written:
// gen(i, ws) then fills ws with words i, i+1, ... of the range, one
// chunk's span at a time. gen must depend on nothing but its arguments
// and must not use the store. A later write or deferral of a word
// overrides this one, as a write would. Reset drops pending deferrals.
func (w *Words) Defer(off, n uint64, gen func(i uint64, ws []uint64)) {
	w.checkLive()
	end := off + n*8
	if off&7 != 0 || end < off || end > uint64(len(w.spine))*groupBytes {
		panic(fmt.Sprintf("mem: Defer of %d words at %#x is unaligned or leaves the store's %d-byte extent",
			n, off, uint64(len(w.spine))*groupBytes))
	}
	if n == 0 {
		return
	}
	f := deferral{off: off, end: end, gen: gen}
	for base := off &^ (chunkBytes - 1); base < end; base += chunkBytes {
		if c := w.peek(base); c != nil {
			f.fill(base, c)
		}
	}
	w.deferred = append(w.deferred, f)
}

// Reset makes every word read zero again, keeping the touched chunks as
// spares and the spine at its size, like Phys.Reset. Pending deferrals
// are dropped.
func (w *Words) Reset() { w.reset() }

// Release drops the store, which is unusable afterwards. The host memory
// it carved stays mapped until its Phys is released. Release is
// idempotent.
func (w *Words) Release() { w.spine, w.touched, w.deferred = nil, 0, nil }
