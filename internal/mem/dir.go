package mem

import (
	"fmt"
	"unsafe"
)

// chunk is one 4 KB backing chunk of 8-byte words, in host byte order: a
// word is read or written with one indexed load or store.
type chunk [chunkWords]uint64

// group is one 2 MB span of a chunk directory: direct-indexed chunk
// pointers. It is exactly one chunk in size, so groups are carved from
// the host slabs like the chunks they index and cost the Go heap nothing.
type group [groupChunks]*chunk

// chunkDir is the sparse store behind Phys and Words: a two-level
// direct-indexed directory — address → group → chunk — so a read is two
// shifts and two array loads, never a map probe. Groups and chunks
// materialize on first write; untouched addresses read as zero.
//
// Neither the groups nor the chunks are scanned by the garbage
// collector. Chunks carved from mapped slabs are outside the Go heap;
// slabs from make are kept reachable by the host (host.made), since the
// groups that point into them are invisible to the collector.
type chunkDir struct {
	// spine is indexed by address >> (chunkShift + groupShift). Entries
	// are nil until a chunk in the group is written. Release sets it to
	// nil, which marks the store released.
	//
	//atlint:noreset Reset empties the groups but keeps the spine; a Phys re-layout resizes it and only Release drops it, for good
	spine []*group

	// host owns the slabs chunks and groups are carved from, and the
	// spare chunks: a Phys's own, shared with the Words made from it.
	host *host

	// touched counts the chunks materialized in the directory.
	touched uint64

	// deferred holds a Words' pending deferrals, oldest first (Words.Defer).
	// A Phys has none.
	deferred []deferral
}

// deferral is a range of a Words whose words a generator writes once
// their chunk materializes.
type deferral struct {
	// off and end bound the range's byte offsets, 8-byte aligned.
	off, end uint64
	// gen fills ws with words i, i+1, ... of the range.
	gen func(i uint64, ws []uint64)
}

// generate writes into c, the chunk at address base, the words of every
// deferral that overlaps it, oldest first, so a newer deferral's words
// win where two overlap.
func (d *chunkDir) generate(base uint64, c *chunk) {
	for i := range d.deferred {
		d.deferred[i].fill(base, c)
	}
}

// fill writes the words of f that fall in c, the chunk at address base.
func (f *deferral) fill(base uint64, c *chunk) {
	if lo, hi := max(f.off, base), min(f.end, base+chunkBytes); lo < hi {
		f.gen((lo-f.off)/8, c[(lo-base)/8:(hi-base)/8])
	}
}

// checkLive panics if the store was released.
func (d *chunkDir) checkLive() {
	if d.spine == nil {
		panic("mem: use of a released store")
	}
}

// fresh returns a zeroed chunk: a spare cleared now, or a new one carved
// from the host slab. With whole set, the caller overwrites every word of
// the chunk before anything reads it, so a spare is handed out as it is.
func (d *chunkDir) fresh(whole bool) *chunk {
	c, spare := d.host.take()
	if spare && !whole {
		clear(c[:])
	}
	return c
}

// chunk returns the backing chunk for address a, materializing it (and
// its group) if needed. A chunk materializes with the words of the
// deferrals that cover it. With whole set, the caller overwrites every
// word of a newly materialized chunk, so neither a spare's old words
// (fresh) nor the deferrals' are written first.
func (d *chunkDir) chunk(a uint64, whole bool) *chunk {
	d.checkLive()
	cn := a >> chunkShift
	gi := cn >> groupShift
	if gi >= uint64(len(d.spine)) {
		panic(fmt.Sprintf("mem: write at %#x beyond the store's %d-byte extent", a, uint64(len(d.spine))*groupBytes))
	}
	g := d.spine[gi]
	if g == nil {
		g = (*group)(unsafe.Pointer(d.fresh(false)))
		d.spine[gi] = g
	}
	c := g[cn&(groupChunks-1)]
	if c == nil {
		c = d.fresh(whole)
		g[cn&(groupChunks-1)] = c
		d.touched++
		if !whole && len(d.deferred) > 0 {
			d.generate(cn<<chunkShift, c)
		}
	}
	return c
}

// peek returns the backing chunk for address a without materializing it
// (nil if the chunk was never touched).
func (d *chunkDir) peek(a uint64) *chunk {
	cn := a >> chunkShift
	gi := cn >> groupShift
	if gi >= uint64(len(d.spine)) {
		// A released store has no spine, so every read lands here and the
		// check costs the in-range path nothing.
		d.checkLive()
		return nil
	}
	g := d.spine[gi]
	if g == nil {
		return nil
	}
	return g[cn&(groupChunks-1)]
}

// read64 loads the 8-byte word at a, which must be 8-byte aligned.
func (d *chunkDir) read64(a uint64) uint64 {
	if a&7 != 0 {
		panic(fmt.Sprintf("mem: unaligned Read64(%#x)", a))
	}
	c := d.peek(a)
	if c == nil {
		if len(d.deferred) == 0 {
			return 0 // untouched memory reads as zero
		}
		return d.absent(a)
	}
	return c[a>>3&(chunkWords-1)]
}

// absent returns the word at a, whose chunk is not materialized: zero,
// as untouched memory reads, unless one of d's deferrals covers the
// chunk, which then materializes.
func (d *chunkDir) absent(a uint64) uint64 {
	base := a &^ (chunkBytes - 1)
	for _, f := range d.deferred {
		if f.off < base+chunkBytes && base < f.end {
			return d.chunk(a, false)[a>>3&(chunkWords-1)]
		}
	}
	return 0
}

// write64 stores an 8-byte word at a, which must be 8-byte aligned.
func (d *chunkDir) write64(a, v uint64) {
	if a&7 != 0 {
		panic(fmt.Sprintf("mem: unaligned Write64(%#x)", a))
	}
	d.chunk(a, false)[a>>3&(chunkWords-1)] = v
}

// writeWords stores ws as consecutive 8-byte words from a, which must be
// 8-byte aligned. The run must stay inside one 4 KB chunk, so it costs
// one directory lookup and one copy however long it is. A run that covers
// the whole chunk takes a spare chunk without clearing it first.
func (d *chunkDir) writeWords(a uint64, ws []uint64) {
	i := a >> 3 & (chunkWords - 1)
	if a&7 != 0 || uint64(len(ws)) > chunkWords-i {
		panic(fmt.Sprintf("mem: WriteWords(%#x) of %d words leaves its 4 KB chunk or is unaligned", a, len(ws)))
	}
	if len(ws) == 0 {
		return
	}
	copy(d.chunk(a, len(ws) == chunkWords)[i:], ws)
}

// equal reports whether d and o cover the same extent, materialize the
// same chunks and hold the same bytes in them. Spare chunks and the host
// slabs are not compared.
func (d *chunkDir) equal(o *chunkDir) bool {
	if d.touched != o.touched || len(d.spine) != len(o.spine) {
		return false
	}
	var empty group
	for gi, g := range d.spine {
		h := o.spine[gi]
		if g == nil && h == nil {
			continue
		}
		if g == nil {
			g = &empty
		}
		if h == nil {
			h = &empty
		}
		for i, c := range g {
			e := h[i]
			if (c == nil) != (e == nil) || c != nil && *c != *e {
				return false
			}
		}
	}
	return true
}

// spill moves g's chunks onto the host's spare list.
func (d *chunkDir) spill(g *group) { d.touched -= d.host.put(g) }

// reset moves every chunk to the host's spare list, keeping the groups in
// the spine for the next tenant, and drops the pending deferrals. The
// list grows once, by every touched chunk.
func (d *chunkDir) reset() {
	d.checkLive()
	clear(d.deferred)
	d.deferred = d.deferred[:0]
	d.host.reserve(d.touched)
	for _, g := range d.spine {
		if g != nil {
			d.spill(g)
		}
	}
}

// resize makes an empty directory's spine cover groups groups. A spine
// of another length is replaced, and its groups, which hold no chunk and
// are each one chunk in size, join the spares.
func (d *chunkDir) resize(groups uint64) {
	if uint64(len(d.spine)) == groups {
		return
	}
	d.host.putGroups(d.spine)
	d.spine = make([]*group, groups)
}

// release unmaps the host slabs; the store is unusable afterwards.
func (d *chunkDir) release() {
	d.host.release()
	d.spine, d.touched, d.deferred = nil, 0, nil
}
