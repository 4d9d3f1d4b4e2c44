// Package walker models the hardware page-table walker. On a TLB miss the
// walker resolves a virtual address by loading page-table entries from
// simulated physical memory: it starts from the deepest paging-structure
// cache hit and performs one cache-hierarchy load per remaining level, so
// a walk costs between one load (PDE-cache hit) and four (cold 4 KB walk).
//
// Each PTE load travels through the same L1/L2/L3/DRAM hierarchy as program
// data. The per-load hit locations are recorded — they are the Haswell
// PAGE_WALKER_LOADS.DTLB_{L1,L2,L3,MEMORY} events behind the paper's
// Figure 8 — and a cycle budget allows speculative walks to abort midway,
// producing the initiated-but-not-completed walks of §V-D.
package walker

import (
	"math"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/mmucache"
	"atscale/internal/pagetable"
	"atscale/internal/telemetry"
)

// stepOverhead is the fixed per-level cost of the walker state machine on
// top of the PTE load latency.
const stepOverhead = 2

// NoBudget makes Walk run to completion.
const NoBudget = math.MaxUint64

// Result describes one walk.
type Result struct {
	// OK is true when a present leaf was found. A completed walk with
	// OK == false is a page fault.
	OK bool
	// Completed is false when the walk was aborted by its cycle budget.
	Completed bool
	// Frame is the physical base of the mapped page (valid when OK).
	Frame arch.PAddr
	// Size is the mapping's page size (valid when OK).
	Size arch.PageSize
	// Cycles is the latency accrued, including partial work on aborts.
	Cycles uint64
	// Loads is the number of PTE loads performed, both dimensions
	// included for nested walks (GuestLoads + EPTLoads).
	Loads int
	// Locs counts the guest-dimension loads by the cache level that
	// satisfied them (every load, for native walks).
	Locs [cache.NumHitLocs]uint16
	// LeafLoc is the cache level that served the final (leaf) PTE load
	// of the guest dimension — the per-walk datum behind PEBS-style
	// sample attribution.
	LeafLoc cache.HitLoc

	// The remaining fields are populated by the nested (2D) walker only
	// and stay zero for native walks, except GuestLoads, which always
	// mirrors the guest-dimension load count.

	// GuestLoads is the number of guest page-table entry loads.
	GuestLoads int
	// EPTLoads is the number of EPT entry loads across all the walk's
	// EPT walks.
	EPTLoads int
	// EPTCycles is the latency accrued inside EPT walks (a subset of
	// Cycles; the guest-dimension share is Cycles - EPTCycles).
	EPTCycles uint64
	// EPTLocs counts EPTLoads by the cache level that satisfied them.
	EPTLocs [cache.NumHitLocs]uint16
	// EPTWalks is the number of completed EPT walks.
	EPTWalks int
	// NTLBHits / NTLBMisses count EPT translations served by the nTLB
	// versus requiring an EPT walk.
	NTLBHits, NTLBMisses int
	// GuestPSCHit is true when the guest dimension started below the
	// root thanks to a paging-structure-cache hit.
	GuestPSCHit bool

	// The scheme-accounting fields below are populated by the
	// translation-scheme backends that need them (internal/scheme) and
	// stay zero otherwise. The core books them into the scheme_* perf
	// event family.

	// BlockProbed marks a walk that probed a Victima-style PTE-block
	// directory; BlockHit records whether the probe short-circuited the
	// walk to a single leaf load.
	BlockProbed bool
	BlockHit    bool
	// Replica classifies a Mitosis walk by where its PTE loads were
	// homed: the walking node's own tables (local) or another node's
	// (remote). ReplicaNone for schemes without replicas.
	Replica ReplicaClass
	// DCHits / DCMisses count this walk's PTE loads that missed SRAM
	// and hit / missed the die-stacked DRAM cache.
	DCHits, DCMisses uint16
}

// ReplicaClass classifies a walk's table locality under page-table
// replication (the Replica field of Result).
type ReplicaClass uint8

// Replica walk classes.
const (
	// ReplicaNone: the scheme does not replicate page tables.
	ReplicaNone ReplicaClass = iota
	// ReplicaLocal: every PTE load stayed on the walking node.
	ReplicaLocal
	// ReplicaRemote: at least one PTE load was homed on another node.
	ReplicaRemote
)

// sizeAtLevel maps a leaf level to its page size (PT->4KB, PD->2MB,
// PDPT->1GB).
func sizeAtLevel(level arch.Level) arch.PageSize {
	switch level {
	case arch.LevelPT:
		return arch.Page4K
	case arch.LevelPD:
		return arch.Page2M
	case arch.LevelPDPT:
		return arch.Page1G
	}
	panic("walker: no page size at level " + level.String())
}

// Engine is the hardware translation engine the core drives on a TLB
// miss. The radix Walker is the production implementation; the hashed
// walker (hashed.go), the nested walker (nested.go, two radix Walkers
// joined by an nTLB) and the translation schemes (internal/scheme) are
// the others. Flush is the context switch
// (address-space-keyed structures drop; physically keyed ones may
// survive, like data caches), InvalidateBlock the promotion shootdown.
type Engine interface {
	// Walk resolves va within the cycle budget.
	Walk(va arch.VAddr, cr3 arch.PAddr, budget uint64) Result
	// Flush drops all cached partial-walk state (context switch).
	Flush()
	// InvalidateBlock drops partial-walk state covering va's 2 MB block
	// (hugepage promotion's PDE shootdown).
	InvalidateBlock(va arch.VAddr)
	// Reset returns the engine to its just-constructed state, trace
	// detached, so a renewed machine is byte-identical to a fresh one.
	Reset()
	// EnableTrace attaches the engine's timeline track(s) under the
	// machine's process; clock supplies the simulated-cycle clock.
	EnableTrace(p *telemetry.Process, clock func() uint64)
}

// Trace argument and outcome names (constant strings so recording never
// allocates).
const (
	traceWalk     = "walk"
	traceLocArg   = "loc"
	traceOutcome  = "outcome"
	outcomeOK     = "ok"
	outcomeFault  = "fault"
	outcomeAbort  = "aborted"
	outcomeNoWalk = "ept-violation"
	traceEPTWalk  = "ept walk"
	traceNTLBHit  = "ntlb hit"
	traceProbe    = "probe"
	traceHash     = "hash"
)

// levelName returns the timeline slice name of a radix level's PTE load.
func levelName(l arch.Level) string {
	switch l {
	case arch.LevelPT:
		return "PT"
	case arch.LevelPD:
		return "PD"
	case arch.LevelPDPT:
		return "PDPT"
	case arch.LevelPML4:
		return "PML4"
	case arch.LevelPML5:
		return "PML5"
	}
	return "level?"
}

// locName returns the timeline argument naming a PTE load's cache
// outcome.
func locName(loc cache.HitLoc) string {
	switch loc {
	case cache.HitL1:
		return "L1"
	case cache.HitL2:
		return "L2"
	case cache.HitL3:
		return "L3"
	}
	return "DRAM"
}

// Walker is the radix hardware walker plus its paging-structure caches.
// Its kernel (Descend, Resolve, Charge and the span helpers) is the one
// radix walk in the simulator: the translation schemes embed a Walker
// and express themselves as deltas on it, and the nested walker runs one
// Walker per dimension.
type Walker struct {
	phys   *mem.Phys
	psc    *mmucache.PSC
	caches *cache.Hierarchy

	// trk, when non-nil, receives one span per walk with a nested slice
	// per radix level; clock supplies the shared simulated-cycle clock
	// (the core cycle counter) the track syncs to at walk start. With
	// trk nil every hook below is a single pointer compare.
	trk   *telemetry.Track
	clock func() uint64
}

// New builds a walker that loads PTEs through the given cache hierarchy.
func New(phys *mem.Phys, psc *mmucache.PSC, caches *cache.Hierarchy) *Walker {
	return &Walker{phys: phys, psc: psc, caches: caches}
}

// PSC exposes the paging-structure caches (for invalidation on unmap).
func (w *Walker) PSC() *mmucache.PSC { return w.psc }

// EnableTrace implements Engine: one "walker" track.
func (w *Walker) EnableTrace(p *telemetry.Process, clock func() uint64) {
	w.trk, w.clock = p.Track("walker"), clock
}

// Flush implements Engine.
func (w *Walker) Flush() { w.psc.Flush() }

// Reset implements Engine: paging structure caches emptied, trace
// detached.
func (w *Walker) Reset() {
	w.psc.Reset()
	w.trk, w.clock = nil, nil
}

// InvalidateBlock implements Engine.
func (w *Walker) InvalidateBlock(va arch.VAddr) {
	w.psc.InvalidatePrefix(arch.LevelPD, va)
}

// Walk resolves va against the page table rooted at cr3. budget bounds the
// cycles the walk may consume before being aborted (pass NoBudget for
// demand walks, which always run to completion).
//
// The walk is single-pass over the radix path: each level's entry address
// is computed exactly once, and the path is resolved first with raw
// physical reads (architecturally invisible — phys.Read64 touches no
// cache or counter state) before Charge loads it through the caches.
//
//atlint:hotpath
func (w *Walker) Walk(va arch.VAddr, cr3 arch.PAddr, budget uint64) Result {
	var r Result
	var p Path
	w.BeginSpan()
	w.Descend(&p, va, cr3, &r)
	w.Charge(&p, va, budget, nil, &r, true)
	w.EndSpan(&r)
	return r
}

// maxSteps is the longest radix path (five-level paging, PML5 → PT).
const maxSteps = 5

// Path is one resolved radix descent: the entry address and level of
// every step, the frame each non-terminal step descended into, and the
// terminal outcome. Resolution and charging are separate passes so a
// scheme can reprice individual loads or charge several partial paths
// against one budget.
type Path struct {
	ea     [maxSteps]arch.PAddr
	frames [maxSteps]arch.PAddr
	lvls   [maxSteps]arch.Level
	steps  int
	ok     bool
	// open marks a descent cut short by Resolve's step limit at a
	// present non-leaf entry: frames[steps-1] is the next table.
	open  bool
	frame arch.PAddr
	leaf  arch.Level
}

// OK reports whether the descent ended at a present leaf (false: a
// non-present entry, the page fault at the last step).
func (p *Path) OK() bool { return p.ok }

// LastEntry returns the entry address of the descent's final step.
func (p *Path) LastEntry() arch.PAddr { return p.ea[p.steps-1] }

// Descend resolves va's path under the table rooted at root, entered at
// the deepest paging-structure-cache hit; r.GuestPSCHit records whether
// that hit skipped the root level.
func (w *Walker) Descend(p *Path, va arch.VAddr, root arch.PAddr, r *Result) {
	level, base := w.psc.LookupDeepest(va, arch.LevelPT, root)
	r.GuestPSCHit = level != w.psc.Top()
	w.Resolve(p, va, level, base, 0)
}

// Resolve fills p with the radix descent for va starting at (level,
// base), with raw physical reads. The descent ends at a present leaf, a
// non-present entry, or — once it has taken limit steps (0: no limit) —
// a present non-leaf entry, leaving the path open; budget abortion is
// decided by Charge.
//
//atlint:hotpath
func (w *Walker) Resolve(p *Path, va arch.VAddr, level arch.Level, base arch.PAddr, limit int) {
	p.steps, p.ok, p.open = 0, false, false
	for {
		a := pagetable.EntryAddr(base, level, va)
		p.ea[p.steps], p.lvls[p.steps] = a, level
		p.steps++
		e := pagetable.PTE(w.phys.Read64(a))
		if !e.Present() {
			return
		}
		if e.IsLeaf(level) {
			p.ok, p.frame, p.leaf = true, e.Frame(), level
			return
		}
		p.frames[p.steps-1] = e.Frame()
		if p.steps == limit {
			p.open = true
			return
		}
		base = e.Frame()
		level--
	}
}

// LoadAdjuster reprices one performed PTE load: given its physical
// address and the cache level that served it, it returns a latency delta
// (negative for a faster-than-modelled path, e.g. a DRAM-cache hit).
// Per-walk accounting accumulates in the adjuster's own fields, not
// through the Result: passing the Result into this interface call would
// defeat escape analysis and heap-allocate every walk.
type LoadAdjuster interface {
	AdjustLoad(pa arch.PAddr, loc cache.HitLoc) int64
}

// Charge loads a resolved path's PTEs through the cache hierarchy: one
// Access per step plus stepOverhead, repriced by adj when non-nil,
// aborting after the load that first exceeds budget (that load still
// touched cache state; later ones never issue). Every step the walk
// descended past — an open path's last step included, once loaded within
// budget — feeds the paging-structure caches, and each performed load
// gets a trace slice. Cycles continue from r.Cycles, so a walk may
// charge several partial paths against one budget. With terminal set
// Charge also applies the path's outcome — Completed, and OK/Frame/Size
// on a present leaf; a non-terminal call charges a partial descent (the
// replica prefix a Mitosis walk read before falling back to the master
// table, or one guest step of a nested walk). It reports whether the
// budget aborted the walk.
//
//atlint:hotpath
func (w *Walker) Charge(p *Path, va arch.VAddr, budget uint64, adj LoadAdjuster, r *Result, terminal bool) (aborted bool) {
	cycles := r.Cycles
	n := 0
	for n < p.steps {
		lat, loc := w.caches.Access(p.ea[n])
		if adj != nil {
			lat = uint64(int64(lat) + adj.AdjustLoad(p.ea[n], loc))
		}
		cycles += lat + stepOverhead
		r.Locs[loc]++
		r.LeafLoc = loc
		if w.trk != nil {
			w.trk.Slice(levelName(p.lvls[n]), lat+stepOverhead, traceLocArg, locName(loc))
		}
		n++
		if cycles > budget {
			break
		}
	}
	r.Cycles = cycles
	r.Loads += n
	r.GuestLoads += n
	aborted = cycles > budget
	descended := n - 1
	if p.open && !aborted {
		descended = n
	}
	for i := 0; i < descended; i++ {
		w.psc.Insert(p.lvls[i], va, p.frames[i])
	}
	if aborted {
		return true // Completed stays false
	}
	if terminal {
		r.Completed = true
		if p.ok {
			r.OK, r.Frame, r.Size = true, p.frame, sizeAtLevel(p.leaf)
		}
	}
	return false
}

// BeginSpan opens a walk span on the walker's track (a pointer compare
// untraced; the clock is only read when traced).
func (w *Walker) BeginSpan() {
	if w.trk != nil {
		w.trk.Sync(w.clock())
		w.trk.Begin(traceWalk)
	}
}

// EndSpan closes the walk span with r's outcome.
func (w *Walker) EndSpan(r *Result) {
	switch {
	case !r.Completed:
		w.trk.EndArg(traceOutcome, outcomeAbort)
	case !r.OK:
		w.trk.EndArg(traceOutcome, outcomeFault)
	default:
		w.trk.EndArg(traceOutcome, outcomeOK)
	}
}
