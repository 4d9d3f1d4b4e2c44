package mmucache

import (
	"math"

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
type NTLB struct {
	entries []ntlbEntry
	clock   uint64
}

type ntlbEntry struct {
	gbase arch.PAddr // guest-physical page base
	hbase arch.PAddr // host frame backing it
	size  arch.PageSize
	stamp uint64 // 0 marks an invalid entry
}

// NewNTLB builds an EPT translation cache with n entries (0 disables it).
func NewNTLB(n int) *NTLB {
	return &NTLB{entries: make([]ntlbEntry, n)}
}

// Lookup finds the cached EPT translation covering gpa, returning the
// backing host frame base and the mapping size.
func (t *NTLB) Lookup(gpa arch.PAddr) (arch.PAddr, arch.PageSize, bool) {
	t.clock++
	for i := range t.entries {
		e := &t.entries[i]
		if e.stamp != 0 && e.gbase == arch.PAddr(arch.PageBase(arch.VAddr(gpa), e.size)) {
			e.stamp = t.clock
			return e.hbase, e.size, true
		}
	}
	return 0, 0, false
}

// Insert caches one completed EPT walk: the guest-physical page at gbase
// is backed by the host frame at hbase with the given mapping size.
func (t *NTLB) Insert(gbase, hbase arch.PAddr, size arch.PageSize) {
	if len(t.entries) == 0 {
		return
	}
	t.clock++
	victim := 0
	oldest := uint64(math.MaxUint64)
	for i := range t.entries {
		e := &t.entries[i]
		if e.stamp != 0 && e.gbase == gbase && e.size == size {
			e.hbase = hbase
			e.stamp = t.clock
			return
		}
		if e.stamp < oldest {
			victim, oldest = i, e.stamp
		}
	}
	t.entries[victim] = ntlbEntry{gbase: gbase, hbase: hbase, size: size, stamp: t.clock}
}

// Flush empties the cache (full EPT invalidation; not needed on guest
// context switches under a shared EPT). Like a PSC flush it keeps the
// replacement clock running: an invalidation does not rewind time.
func (t *NTLB) Flush() { clear(t.entries) }

// Reset returns the cache to its just-constructed state, clock included.
func (t *NTLB) Reset() {
	t.Flush()
	t.clock = 0
}

// Live returns the number of valid entries (test/debug helper).
func (t *NTLB) Live() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].stamp != 0 {
			n++
		}
	}
	return n
}
