package mem

// Words is a sparse store of 8-byte words addressed by byte offset: the
// same chunk directory as Phys, carved from the slabs of the Phys it was
// made from, but with a spine that grows on demand instead of one sized
// by a physical limit. The machine keeps each address space's program
// data in one, at offsets from the heap base, so data never passes
// through simulated physical memory.
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
// aligned. Offsets never written, or beyond the store, read as zero.
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
func (w *Words) Equal(v *Words) bool {
	w.checkLive()
	v.checkLive()
	return w.chunkDir.equal(&v.chunkDir)
}

// Reset makes every word read zero again, keeping the touched chunks as
// spares and the spine at its size, like Phys.Reset.
func (w *Words) Reset() { w.reset() }

// Release drops the store, which is unusable afterwards. The host memory
// it carved stays mapped until its Phys is released. Release is
// idempotent.
func (w *Words) Release() { w.spine, w.touched = nil, 0 }
