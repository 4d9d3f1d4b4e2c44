// Package tlb models translation lookaside buffers: set-associative arrays
// mapping virtual page numbers to physical frames, with true LRU within
// each set (an assoc.Array). The Hierarchy type assembles the Haswell
// arrangement the paper measures: split first-level TLBs per page size
// backed by a unified second-level STLB shared by 4 KB and 2 MB
// translations.
package tlb

import (
	"atscale/internal/arch"
	"atscale/internal/assoc"
)

// Entry is one cached translation.
type Entry struct {
	// VPN is the virtual page number (va >> size shift).
	VPN uint64
	// Frame is the physical base address of the mapped page.
	Frame arch.PAddr
	// Size is the mapping's page size.
	Size arch.PageSize
}

// key tags a cached translation: a VPN at its own page size.
type key struct {
	vpn  uint64
	size arch.PageSize
}

// TLB is one set-associative translation cache. A TLB may hold a single
// page size (split L1 arrays) or several (unified STLB); the set index and
// tag are derived from the VPN at each entry's own page size, and lookups
// probe once per size the TLB holds.
type TLB struct {
	holds [arch.NumPageSizes]bool
	arr   assoc.Array[key, arch.PAddr]
}

// New builds a TLB from its geometry, holding the given page sizes.
// A geometry with no sets yields a disabled TLB that holds no size and
// never hits.
func New(g arch.TLBGeometry, sizes ...arch.PageSize) TLB {
	var t TLB
	if g.Entries == 0 || g.Entries < g.Ways {
		return t
	}
	t.arr = assoc.New[key, arch.PAddr](g.Entries/g.Ways, g.Ways)
	for _, s := range sizes {
		t.holds[s] = true
	}
	return t
}

// Holds reports whether the TLB caches translations of the given size.
func (t *TLB) Holds(ps arch.PageSize) bool { return t.holds[ps] }

// Lookup probes for a translation of va at any size the TLB holds. A
// hit moves the entry to the front of its set.
//
//atlint:hotpath
func (t *TLB) Lookup(va arch.VAddr) (Entry, bool) {
	for ps := arch.Page4K; ps < arch.NumPageSizes; ps++ {
		if !t.holds[ps] {
			continue
		}
		vpn := arch.PageNumber(va, ps)
		if frame, ok := t.arr.Lookup(t.arr.SetOf(vpn), key{vpn, ps}); ok {
			return Entry{VPN: vpn, Frame: frame, Size: ps}, true
		}
	}
	return Entry{}, false
}

// Insert caches the translation of va (page base) -> frame at the given
// size at the front of its set, evicting the set's last way if needed.
// Inserting a translation that is already present refreshes it and
// moves it to the front.
//
//atlint:hotpath
func (t *TLB) Insert(va arch.VAddr, frame arch.PAddr, ps arch.PageSize) {
	if !t.holds[ps] {
		return
	}
	vpn := arch.PageNumber(va, ps)
	t.arr.Insert(t.arr.SetOf(vpn), key{vpn, ps}, frame)
}

// InvalidatePage drops the translation of va at the given size if
// present.
func (t *TLB) InvalidatePage(va arch.VAddr, ps arch.PageSize) {
	if !t.holds[ps] {
		return
	}
	vpn := arch.PageNumber(va, ps)
	t.arr.Invalidate(t.arr.SetOf(vpn), key{vpn, ps})
}

// Reset returns the TLB to its just-constructed state: empty.
func (t *TLB) Reset() { t.Flush() }

// Flush empties the TLB.
func (t *TLB) Flush() { t.arr.Flush() }

// Live returns the number of valid entries (test/debug helper).
func (t *TLB) Live() int { return t.arr.Live() }

// Level says where a hierarchy lookup was satisfied.
type Level uint8

const (
	// HitL1 means the first-level TLB translated the access.
	HitL1 Level = iota
	// HitSTLB means the second-level TLB translated it (extra latency).
	HitSTLB
	// Miss means no TLB holds the translation; a page walk is required.
	Miss
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case HitL1:
		return "L1TLB"
	case HitSTLB:
		return "STLB"
	case Miss:
		return "miss"
	}
	return "?"
}

// Result is the outcome of a hierarchy lookup.
type Result struct {
	// Level says which array (if any) translated the access.
	Level Level
	// Entry is valid when Level != Miss.
	Entry Entry
}

// Hierarchy is the two-level TLB arrangement of the simulated machine.
type Hierarchy struct {
	l1   [arch.NumPageSizes]TLB
	stlb TLB
}

// NewHierarchy builds the TLB hierarchy described by cfg.
func NewHierarchy(cfg *arch.SystemConfig) *Hierarchy {
	h := &Hierarchy{}
	for ps := arch.Page4K; ps < arch.NumPageSizes; ps++ {
		h.l1[ps] = New(cfg.L1TLB[ps], ps)
	}
	stlbSizes := []arch.PageSize{arch.Page4K, arch.Page2M}
	if cfg.STLBHolds1G {
		stlbSizes = append(stlbSizes, arch.Page1G)
	}
	h.stlb = New(cfg.STLB, stlbSizes...)
	return h
}

// Lookup translates va through the hierarchy. An STLB hit promotes the
// translation into the appropriate L1 array, as hardware does.
//
//atlint:hotpath
func (h *Hierarchy) Lookup(va arch.VAddr) Result {
	// Each L1 array holds its own size only, so the hierarchy makes that
	// one probe itself: an L1 hit then costs one call, into the array,
	// rather than two through TLB.Lookup (neither call can be inlined).
	for ps := arch.Page4K; ps < arch.NumPageSizes; ps++ {
		t := &h.l1[ps]
		if !t.holds[ps] {
			continue
		}
		vpn := arch.PageNumber(va, ps)
		if frame, ok := t.arr.Lookup(t.arr.SetOf(vpn), key{vpn, ps}); ok {
			return Result{Level: HitL1, Entry: Entry{VPN: vpn, Frame: frame, Size: ps}}
		}
	}
	if e, ok := h.stlb.Lookup(va); ok {
		h.l1[e.Size].Insert(va, e.Frame, e.Size)
		return Result{Level: HitSTLB, Entry: e}
	}
	return Result{Level: Miss}
}

// Fill installs a completed walk's translation into the L1 array for its
// size and into the STLB (when the STLB holds that size).
func (h *Hierarchy) Fill(va arch.VAddr, frame arch.PAddr, ps arch.PageSize) {
	h.l1[ps].Insert(va, frame, ps)
	h.stlb.Insert(va, frame, ps)
}

// FillSTLB installs a translation into the STLB only — the insertion
// point for prefetched translations, which must not displace L1 entries.
func (h *Hierarchy) FillSTLB(va arch.VAddr, frame arch.PAddr, ps arch.PageSize) {
	h.stlb.Insert(va, frame, ps)
}

// InvalidatePage removes the translation for va at the given size from
// every array.
func (h *Hierarchy) InvalidatePage(va arch.VAddr, ps arch.PageSize) {
	h.l1[ps].InvalidatePage(va, ps)
	h.stlb.InvalidatePage(va, ps)
}

// Reset returns every array to its just-constructed state.
func (h *Hierarchy) Reset() {
	for ps := range h.l1 {
		h.l1[ps].Reset()
	}
	h.stlb.Reset()
}

// Flush empties every array.
func (h *Hierarchy) Flush() {
	for ps := range h.l1 {
		h.l1[ps].Flush()
	}
	h.stlb.Flush()
}

// L1 exposes the first-level array for a size (test/debug helper).
func (h *Hierarchy) L1(ps arch.PageSize) *TLB { return &h.l1[ps] }

// STLB exposes the second-level array (test/debug helper).
func (h *Hierarchy) STLB() *TLB { return &h.stlb }
