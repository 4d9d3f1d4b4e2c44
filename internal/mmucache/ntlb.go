package mmucache

import (
	"atscale/internal/arch"
	"atscale/internal/assoc"
)

// NTLB is the EPT translation cache ("nested TLB"): a small
// fully-associative cache mapping guest-physical pages to the host frames
// the EPT resolves them to. Each guest walk step needs the host address
// of a guest-physical table page, so without this cache a nested walk
// pays a full EPT walk per guest level; with it, warm guest-table pages
// cost one lookup. It is the host-dimension analogue of the walk-serving
// STLB hit, and it is keyed on guest-physical addresses — so it stays
// valid across guest context switches under a shared EPT, which is where
// the multi-tenant EPT-sharing benefit comes from.
//
// The hypervisor maps every EPT leaf at one page size, so the cache is
// one set keyed by the guest-physical page base at that size: no two
// entries overlap, and a lookup is one exact key match.
type NTLB struct {
	arr  assoc.Array[arch.PAddr, arch.PAddr]
	size arch.PageSize // the EPT leaf size
}

// NewNTLB builds an EPT translation cache with n entries (0 disables it)
// for an EPT whose leaves are all of the given size.
func NewNTLB(n int, size arch.PageSize) NTLB {
	return NTLB{arr: assoc.New[arch.PAddr, arch.PAddr](1, n), size: size}
}

// Lookup finds the cached EPT translation covering gpa, returning the
// backing host frame base and the mapping size.
//
//atlint:hotpath
func (t *NTLB) Lookup(gpa arch.PAddr) (arch.PAddr, arch.PageSize, bool) {
	hbase, ok := t.arr.Lookup(0, arch.PAddr(arch.PageBase(arch.VAddr(gpa), t.size)))
	return hbase, t.size, ok
}

// Insert caches one completed EPT walk: the guest-physical page at gbase
// is backed by the host frame at hbase.
//
//atlint:hotpath
func (t *NTLB) Insert(gbase, hbase arch.PAddr) { t.arr.Insert(0, gbase, hbase) }

// Flush empties the cache (full EPT invalidation; not needed on guest
// context switches under a shared EPT).
func (t *NTLB) Flush() { t.arr.Flush() }

// Reset returns the cache to its just-constructed state: empty.
func (t *NTLB) Reset() { t.Flush() }

// Live returns the number of valid entries (test/debug helper).
func (t *NTLB) Live() int { return t.arr.Live() }

// Keys returns the cached guest-physical page bases, most recent first
// (test/debug helper).
func (t *NTLB) Keys() []arch.PAddr { return t.arr.Keys(0) }
