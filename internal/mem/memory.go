package mem

import "atscale/internal/arch"

// Memory is the physical-memory contract the page-table and OS layers
// build on: a frame allocator plus word-granular access. *Phys is the
// host implementation; the virtualization layer implements it a second
// time in guest-physical space (internal/virt), which is what lets one
// pagetable.Table serve both as a native table and as a guest table
// whose table pages are themselves guest-physical.
type Memory interface {
	// AllocPage allocates one naturally aligned zeroed frame.
	AllocPage(ps arch.PageSize) (arch.PAddr, error)
	// FreePage returns a frame obtained from AllocPage.
	FreePage(pa arch.PAddr, ps arch.PageSize)
	// Read64 loads the 8-byte word at pa (8-byte aligned).
	Read64(pa arch.PAddr) uint64
	// Write64 stores an 8-byte word at pa (8-byte aligned).
	Write64(pa arch.PAddr, v uint64)
}

var _ Memory = (*Phys)(nil)

// ZeroRange clears [pa, pa+n), both 4 KB chunk-aligned, without
// materializing untouched backing.
func (p *Phys) ZeroRange(pa arch.PAddr, n uint64) {
	if !arch.IsAligned(uint64(pa), 1<<chunkShift) || !arch.IsAligned(n, 1<<chunkShift) {
		panic("mem: misaligned ZeroRange")
	}
	p.zeroRange(pa, n)
}
