package mmucache

import (
	"slices"

	"atscale/internal/arch"
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
// Its live entries are a slice in recency order, most recent first; the
// slice's capacity is the cache size, so the victim of a full cache is
// its last entry. A lookup returns the first entry covering the
// guest-physical address: the nested walker fills every entry at the
// hypervisor's single EPT leaf size, so no two entries overlap.
type NTLB struct {
	entries []NTLBEntry
}

// NTLBEntry is one cached EPT translation.
type NTLBEntry struct {
	GBase arch.PAddr // guest-physical page base
	HBase arch.PAddr // host frame backing it
	Size  arch.PageSize
}

// NewNTLB builds an EPT translation cache with n entries (0 disables it).
func NewNTLB(n int) *NTLB {
	return &NTLB{entries: make([]NTLBEntry, 0, n)}
}

// Lookup finds the cached EPT translation covering gpa, returning the
// backing host frame base and the mapping size.
//
//atlint:hotpath
func (t *NTLB) Lookup(gpa arch.PAddr) (arch.PAddr, arch.PageSize, bool) {
	for i, e := range t.entries {
		if e.GBase == arch.PAddr(arch.PageBase(arch.VAddr(gpa), e.Size)) {
			toFront(t.entries, i, e)
			return e.HBase, e.Size, true
		}
	}
	return 0, 0, false
}

// Insert caches one completed EPT walk: the guest-physical page at gbase
// is backed by the host frame at hbase with the given mapping size.
//
//atlint:hotpath
func (t *NTLB) Insert(gbase, hbase arch.PAddr, size arch.PageSize) {
	w := len(t.entries)
	for i, e := range t.entries {
		if e.GBase == gbase && e.Size == size {
			w = i
			break
		}
	}
	t.entries = toFront(t.entries, w, NTLBEntry{GBase: gbase, HBase: hbase, Size: size})
}

// Flush empties the cache (full EPT invalidation; not needed on guest
// context switches under a shared EPT).
func (t *NTLB) Flush() { t.entries = t.entries[:0] }

// Reset returns the cache to its just-constructed state: empty.
func (t *NTLB) Reset() { t.Flush() }

// Live returns the number of valid entries (test/debug helper).
func (t *NTLB) Live() int { return len(t.entries) }

// Entries returns a copy of the live entries, most recent first
// (test/debug helper).
func (t *NTLB) Entries() []NTLBEntry { return slices.Clone(t.entries) }
