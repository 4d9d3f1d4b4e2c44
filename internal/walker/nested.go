package walker

import (
	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/mmucache"
	"atscale/internal/telemetry"
)

// Nested is the two-dimensional hardware walker of a machine running
// under nested paging: the guest page table's pages live at
// guest-physical addresses, so resolving each guest level first requires
// the host address of that level's table page — an EPT translation,
// served by the nTLB or by a full EPT walk — and the walk finishes with
// one more EPT translation for the data page itself. Worst case for a
// 4 KB guest walk over a 4 KB EPT that is 4 guest PTE loads plus 5 EPT
// walks of 4 loads each: 24 loads, versus the native walker's 4.
//
// Both dimensions are radix walks on the kernel of a Walker of their
// own: guest keeps the guest-dimension paging-structure caches (keyed on
// guest-virtual addresses, holding guest-physical table pointers), ept
// the EPT-dimension ones (keyed on guest-physical addresses). Lookup
// order on a guest step: guest PSCs (to pick the walk entry point), then
// per step the nTLB, then the EPT PSCs inside an EPT walk.
//
// Every load in both dimensions goes through the shared cache hierarchy,
// so the paper's filtering effect — and Patil-style "where do PTE loads
// land" attribution — is observable per dimension: guest-dimension loads
// land in Result.Locs, EPT-dimension loads in Result.EPTLocs.
type Nested struct {
	// guest and ept read PTEs from host memory; their tracks, when
	// traced, are the guest-dimension and EPT-dimension timeline
	// sub-tracks, cross-synced so the dimensions interleave in walk
	// order, and guest's clock is the shared simulated-cycle clock.
	guest, ept Walker
	ntlb       mmucache.NTLB
	eptRoot    arch.PAddr
	eptLeaf    arch.Level // leaf level of the EPT mapping policy
}

// eptStatus reports how an EPT translation inside a nested walk ended.
type eptStatus uint8

const (
	eptOK        eptStatus = iota // translation resolved
	eptAborted                    // cycle budget exhausted mid-EPT-walk
	eptViolation                  // gPA unmapped in the EPT
)

// NewNested builds the 2D walker: guest walks resolve against a guest
// table rooted at the (guest-physical) CR3 passed to Walk, with
// guest-dimension PSCs of geometry guestPSC, and every guest-physical
// access resolves through the EPT rooted at eptRoot, whose leaves are
// all of size vc.EPTPages, behind vc's nTLB and EPT PSCs. Both
// dimensions are 4-level (nested paging pairs with PagingLevels=4).
func NewNested(phys *mem.Phys, eptRoot arch.PAddr, guestPSC arch.PSCGeometry, vc arch.VirtConfig, caches *cache.Hierarchy) *Nested {
	return &Nested{
		guest:   Walker{phys: phys, psc: mmucache.New(guestPSC), caches: caches},
		ept:     Walker{phys: phys, psc: mmucache.New(vc.EPTPSC), caches: caches},
		ntlb:    mmucache.NewNTLB(vc.NTLBEntries, vc.EPTPages),
		eptRoot: eptRoot,
		eptLeaf: vc.EPTPages.LeafLevel(),
	}
}

// EnableTrace implements Engine: a guest-dimension track, then an
// EPT-dimension one.
func (w *Nested) EnableTrace(p *telemetry.Process, clock func() uint64) {
	w.guest.trk, w.guest.clock = p.Track("walker (guest)"), clock
	w.ept.trk = p.Track("walker (ept)")
}

// Reset implements Engine: both dimensions' caches emptied, trace
// detached.
func (w *Nested) Reset() {
	w.guest.Reset()
	w.ept.Reset()
	w.ntlb.Reset()
}

// Flush implements Engine. For a nested walker, Flush is the guest
// context switch: guest-dimension PSCs drop, but the EPT PSCs and nTLB —
// tagged by guest-physical addresses under an unchanged EPTP — stay
// warm. That persistence is the EPT-sharing benefit multi-tenant sweeps
// measure.
func (w *Nested) Flush() { w.guest.Flush() }

// InvalidateBlock implements Engine (guest-dimension PDE shootdown).
func (w *Nested) InvalidateBlock(va arch.VAddr) { w.guest.InvalidateBlock(va) }

// Walk implements Engine: the full gVA -> hPA nested walk. cr3 is the
// guest page table root, a guest-physical address.
//
//atlint:hotpath
func (w *Nested) Walk(va arch.VAddr, cr3 arch.PAddr, budget uint64) Result {
	var r Result
	w.guest.BeginSpan()
	level, base := w.guest.psc.LookupDeepest(va, arch.LevelPT, cr3)
	r.GuestPSCHit = level != w.guest.psc.Top()
	st := w.step(&r, va, level, base, budget)
	if st != eptOK {
		// A failed EPT translation voids the guest leaf step may have
		// found; only a violation completes the walk.
		r.OK, r.Completed, r.Frame, r.Size = false, st == eptViolation, 0, 0
	}
	if st == eptViolation {
		w.guest.trk.EndArg(traceOutcome, outcomeNoWalk)
	} else {
		w.guest.EndSpan(&r)
	}
	return r
}

// step walks the guest dimension from the entry at level of the guest
// table at guest-physical base: it translates the table page through
// the EPT, then charges the entry's load on the guest walker. A present
// non-leaf entry continues one level down (a tail call, at most three
// deep); a leaf leaves the guest page's outcome in r, which the data
// page's EPT translation turns into the host translation. It returns
// the status of the EPT translation that ended the walk (eptOK when the
// guest dimension ended it); on failure Walk voids r's outcome.
//
//atlint:hotpath
func (w *Nested) step(r *Result, va arch.VAddr, level arch.Level, base arch.PAddr, budget uint64) eptStatus {
	hbase, _, st := w.translate(base, r, budget)
	w.guest.trk.Sync(w.ept.trk.Now())
	if st != eptOK {
		return st
	}
	var p Path
	w.guest.Resolve(&p, va, level, hbase, 1)
	switch aborted := w.guest.Charge(&p, va, budget, nil, r, !p.open); {
	case p.open && !aborted:
		return w.step(r, va, level-1, p.frames[0], budget)
	case aborted || !p.ok:
		return eptOK // a guest-dimension abort or page fault
	}
	// The final dimension crossing: the data page's guest-physical
	// address. The combined translation is linear only over the smaller
	// of the two mapping sizes, so that is the granularity the TLBs may
	// cache (hardware TLBs under nested paging behave the same way).
	hpa, hsize, st := w.translate(r.Frame+arch.PAddr(uint64(va)&r.Size.Mask()), r, budget)
	w.guest.trk.Sync(w.ept.trk.Now())
	if st == eptOK {
		r.Size = min(r.Size, hsize)
		r.Frame = arch.PAddr(arch.PageBase(arch.VAddr(hpa), r.Size))
	}
	return st
}

// translate resolves the guest-physical address gpa to its host address
// and the EPT mapping size covering it: the nTLB first, then one radix
// walk of the EPT on the ept walker — entered at the deepest EPT PSC hit
// and charged into a scratch Result that continues from r.Cycles —
// folded into r's EPT-dimension fields, its leaf filling the nTLB.
//
//atlint:hotpath
func (w *Nested) translate(gpa arch.PAddr, r *Result, budget uint64) (arch.PAddr, arch.PageSize, eptStatus) {
	// The EPT dimension runs while the guest dimension is stalled: pull
	// the EPT track up to guest time here, and (in step) the guest track
	// back up to EPT time.
	w.ept.trk.Sync(w.guest.trk.Now())
	if hbase, size, ok := w.ntlb.Lookup(gpa); ok {
		r.NTLBHits++
		w.ept.trk.Instant(traceNTLBHit)
		return hbase + arch.PAddr(uint64(gpa)&size.Mask()), size, eptOK
	}
	r.NTLBMisses++
	w.ept.trk.Begin(traceEPTWalk)
	gva := arch.VAddr(gpa) // the EPT's input address is guest-physical
	level, base := w.ept.psc.LookupDeepest(gva, w.eptLeaf, w.eptRoot)
	var p Path
	w.ept.Resolve(&p, gva, level, base, 0)
	e := Result{Cycles: r.Cycles}
	aborted := w.ept.Charge(&p, gva, budget, nil, &e, true)
	r.EPTCycles += e.Cycles - r.Cycles
	r.Cycles = e.Cycles
	r.Loads += e.Loads
	r.EPTLoads += e.Loads
	for loc := range e.Locs {
		r.EPTLocs[loc] += e.Locs[loc]
	}
	switch {
	case aborted:
		w.ept.trk.EndArg(traceOutcome, outcomeAbort)
		return 0, 0, eptAborted
	case !e.OK:
		w.ept.trk.EndArg(traceOutcome, outcomeNoWalk)
		return 0, 0, eptViolation
	}
	w.ntlb.Insert(arch.PAddr(arch.PageBase(gva, e.Size)), e.Frame)
	r.EPTWalks++
	w.ept.trk.EndArg(traceOutcome, outcomeOK)
	return e.Frame + arch.PAddr(uint64(gpa)&e.Size.Mask()), e.Size, eptOK
}
