// Package cpu models the core: instruction and cycle accounting, the
// translation datapath (TLBs, walker), demand data accesses through the
// cache hierarchy, and — critically for the paper's §V-D — speculation.
//
// The model is direct-execution: workloads call Load/Store/Ops/Branch with
// their real addresses and branch outcomes. Timing is first-order (a base
// CPI plus partially-hidden memory and walk latencies), but the
// *translation microarchitecture* is simulated faithfully, so every
// counter the paper derives metrics from has a mechanistic origin:
//
//   - Retired walks come from demand accesses that miss both TLB levels.
//   - Wrong-path walks come from mispredicted branches (real outcomes
//     through a gshare predictor) opening a speculation window sized by
//     the resolve latency; wrong-path addresses near the recent working
//     set look up the TLB and may walk.
//   - Aborted walks are speculative walks that outlive their window: the
//     colder the PTEs, the longer the walk, the likelier the abort.
//   - Machine clears come from 4 KB-aliasing/memory-ordering conflicts
//     against a recent-store window, and flush like mispredicts.
package cpu

import (
	"fmt"
	"math/rand"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/perf"
	"atscale/internal/telemetry"
	"atscale/internal/tlb"
	"atscale/internal/walker"
)

// Timeline instant names the core emits on its speculation track.
const (
	traceMispredict   = "mispredict"
	traceMachineClear = "machine_clear"
	traceWalkSquash   = "walk_squash"
	traceWrongPath    = "wrongpath_walk"
)

// osFaultCycles is the cycle cost charged for a demand page fault (kernel
// entry, allocation, map, return).
const osFaultCycles = 1400

// FaultHandler is the OS upcall invoked on a demand page fault. It must
// map the page containing va and return the mapped size.
type FaultHandler func(va arch.VAddr) (arch.PageSize, error)

type aliasEntry struct {
	va  arch.VAddr
	seq uint64
}

// Core is one simulated CPU core.
type Core struct {
	cfg    *arch.SystemConfig
	tlbs   *tlb.Hierarchy
	caches *cache.Hierarchy
	walker walker.Engine
	ctr    perf.Counters

	cr3   arch.PAddr
	fault FaultHandler

	pred *gshare
	rng  *rand.Rand

	// cycleFrac carries sub-cycle remainders so the Cycles counter stays
	// integer and monotonic.
	cycleFrac float64

	// recentLat is an EWMA of demand-access latencies, used as the
	// data-dependent part of branch-resolve latency.
	recentLat float64

	// ring holds recent demand VAs for wrong-path address synthesis.
	//
	//atlint:noreset stale entries are unreachable: Reset zeroes ringLen/ringPos and reads never go past ringLen
	ring    [64]arch.VAddr
	ringLen int
	ringPos int

	// reservoir holds a long-horizon sample of demand VAs: stale pointer
	// values wrong-path micro-ops dereference. Unlike ring entries these
	// are usually no longer TLB-resident once the footprint outgrows the
	// TLB — the mechanism that makes wrong-path walks scale with
	// footprint (§V-D).
	//
	//atlint:noreset stale samples are unreachable: Reset zeroes reservoirLen and draws never go past it
	reservoir    [8192]arch.VAddr
	reservoirLen int

	// vaMin/vaMax bound the touched virtual range.
	vaMin, vaMax arch.VAddr

	// aliases tracks recent stores by page offset for 4K-aliasing clears,
	// direct-indexed by the 512 possible aligned page offsets (va bits
	// 3..11). seq == 0 marks an empty slot: storeSeq pre-increments, so a
	// real entry's sequence number is never zero.
	aliases  [512]aliasEntry
	storeSeq uint64

	// smp holds the attached PEBS-style samplers (usually zero or one;
	// the promotion policy attaches its own). Empty means every sampling
	// hook is a single len check.
	smp []*perf.Sampler

	// lastWalkCycles/lastWalkLevel carry the most recent demand walk's
	// latency and leaf-PTE location into the access-retirement sample
	// (zero / PTENone on TLB hits).
	lastWalkCycles uint64
	lastWalkLevel  perf.PTELevel

	// trk, when non-nil, is the core's speculation timeline track:
	// mispredict and machine-clear flushes, plus squashed and completed
	// wrong-path walks, land on it as instants at core-cycle time.
	trk *telemetry.Track
}

// New builds a core on top of the given translation and cache hardware.
// seed fixes the speculation model's random choices, making runs
// reproducible.
func New(cfg *arch.SystemConfig, tlbs *tlb.Hierarchy, caches *cache.Hierarchy, w walker.Engine, seed int64) *Core {
	return &Core{
		cfg:    cfg,
		tlbs:   tlbs,
		caches: caches,
		walker: w,
		pred:   newGshare(cfg.CPU.GsharePCBits),
		rng:    rand.New(rand.NewSource(seed)),
		vaMin:  ^arch.VAddr(0),
	}
}

// Reset returns the core — and the TLBs and caches it owns — to the
// just-constructed state with a fresh speculation seed, so a pooled
// machine's core is indistinguishable from a newly built one. The
// address space must be re-attached with SetAddressSpace afterwards;
// attached samplers and the timeline track are dropped.
func (c *Core) Reset(seed int64) {
	c.ctr = perf.Counters{}
	c.cr3, c.fault = 0, nil
	c.pred.reset()
	c.rng.Seed(seed) // the state rand.NewSource(seed) starts in
	c.cycleFrac = 0
	c.recentLat = 0
	c.ringLen, c.ringPos = 0, 0
	c.reservoirLen = 0
	c.vaMin, c.vaMax = ^arch.VAddr(0), 0
	c.aliases = [512]aliasEntry{}
	c.storeSeq = 0
	c.smp = nil
	c.lastWalkCycles, c.lastWalkLevel = 0, perf.PTENone
	c.trk = nil
	c.tlbs.Reset()
	c.caches.Reset()
}

// SetAddressSpace points the core at a page table root and the OS fault
// handler (the simulated CR3 write at process start).
func (c *Core) SetAddressSpace(cr3 arch.PAddr, fault FaultHandler) {
	c.cr3 = cr3
	c.fault = fault
	c.tlbs.Flush()
	c.walker.Flush()
}

// Counters returns a snapshot of the core's PMU.
func (c *Core) Counters() perf.Counters { return c.ctr.Snapshot() }

// CycleCount returns the core cycle counter — the simulated clock every
// timeline track syncs to.
func (c *Core) CycleCount() uint64 { return c.ctr.Get(perf.Cycles) }

// SetTrace attaches the core's speculation timeline track.
func (c *Core) SetTrace(trk *telemetry.Track) { c.trk = trk }

// Accesses returns retired loads+stores so far (cheap progress gauge).
func (c *Core) Accesses() uint64 {
	return c.ctr.Get(perf.AllLoads) + c.ctr.Get(perf.AllStores)
}

// AttachSampler adds a PEBS-style sampler to the datapath's sampling
// hooks. Multiple samplers may be attached (the promotion policy runs a
// private one next to the user-facing one); each sees every candidate.
func (c *Core) AttachSampler(s *perf.Sampler) { c.smp = append(c.smp, s) }

// Instructions returns retired instructions so far without snapshotting
// the full counter file (interval streaming's per-access probe).
func (c *Core) Instructions() uint64 { return c.ctr.Get(perf.InstRetired) }

// InvalidateTranslation drops any cached translation of va at the given
// size from every TLB level (the OS's INVLPG).
func (c *Core) InvalidateTranslation(va arch.VAddr, ps arch.PageSize) {
	c.tlbs.InvalidatePage(va, ps)
}

// InvalidatePDE drops the paging-structure-cache entry covering va's 2 MB
// block — mandatory after a hugepage promotion replaces the PDE.
func (c *Core) InvalidatePDE(va arch.VAddr) {
	c.walker.InvalidateBlock(va)
}

// Stall charges visible cycles for OS work performed on the program's
// behalf (promotion copies, for instance).
func (c *Core) Stall(cycles uint64) { c.charge(float64(cycles)) }

// FlushTLBs drops every TLB level without touching CR3 or the walker —
// the cold-TLB cost of landing on a different core after a thread
// migration (walk-cache scopes are the translation scheme's to flush).
func (c *Core) FlushTLBs() { c.tlbs.Flush() }

// CountSoftware books a software event (OS-level occurrences such as
// hugepage promotions) into the PMU alongside the hardware events.
func (c *Core) CountSoftware(e perf.Event, n uint64) { c.ctr.Add(e, n) }

// charge accrues fractional cycles into the integer cycle counter.
func (c *Core) charge(cy float64) {
	c.cycleFrac += cy
	whole := uint64(c.cycleFrac)
	if whole > 0 {
		c.ctr.Add(perf.Cycles, whole)
		c.cycleFrac -= float64(whole)
	}
}

// Ops retires n non-memory instructions.
func (c *Core) Ops(n uint64) {
	c.ctr.Add(perf.InstRetired, n)
	c.charge(float64(n) * c.cfg.CPU.BaseCPI)
}

// Load retires one load of va and returns the physical address accessed.
func (c *Core) Load(va arch.VAddr) arch.PAddr {
	c.ctr.Inc(perf.InstRetired)
	c.ctr.Inc(perf.AllLoads)
	c.checkAlias(va)
	return c.access(va, false)
}

// Store retires one store to va and returns the physical address accessed.
func (c *Core) Store(va arch.VAddr) arch.PAddr {
	c.ctr.Inc(perf.InstRetired)
	c.ctr.Inc(perf.AllStores)
	c.recordStore(va)
	return c.access(va, true)
}

// access translates va (walking and faulting as needed), performs the data
// access, charges visible latency, and returns the physical address.
func (c *Core) access(va arch.VAddr, isStore bool) arch.PAddr {
	c.charge(c.cfg.CPU.BaseCPI)
	c.noteVA(va)
	c.lastWalkCycles, c.lastWalkLevel = 0, perf.PTENone

	var frame arch.PAddr
	var size arch.PageSize
	switch r := c.tlbs.Lookup(va); r.Level {
	case tlb.HitL1:
		frame, size = r.Entry.Frame, r.Entry.Size
	case tlb.HitSTLB:
		c.countSTLBHit(isStore)
		c.charge(float64(c.cfg.CPU.STLBHitLatency) * c.cfg.CPU.STLBHitVisibility)
		frame, size = r.Entry.Frame, r.Entry.Size
		// An STLB hit still signals first-level pressure; chaining the
		// prefetcher here lets it keep pace with streams (a hit on a
		// prefetched page prefetches the next one).
		if c.cfg.TLBPrefetchNextPage {
			c.prefetchNextPage(va, size)
		}
	default:
		frame, size = c.demandWalk(va, isStore)
	}

	pa := frame + arch.PAddr(uint64(va)&size.Mask())
	lat, _ := c.caches.Access(pa)
	l1 := c.cfg.L1D.Latency
	if lat > l1 {
		c.charge(float64(lat-l1) * c.cfg.CPU.MemVisibility)
	}
	c.recentLat = 0.9*c.recentLat + 0.1*float64(lat)
	c.sampleRetire(isStore, va)
	return pa
}

// demandWalk performs the page walk for a retired access, taking a fault
// and retrying once if the page is not yet mapped.
func (c *Core) demandWalk(va arch.VAddr, isStore bool) (arch.PAddr, arch.PageSize) {
	c.countSTLBMissRetired(isStore)
	c.countWalkInitiated(isStore)
	wr := c.walker.Walk(va, c.cr3, walker.NoBudget)
	c.accountWalk(isStore, wr)
	c.charge(float64(wr.Cycles) * c.cfg.CPU.WalkVisibility)
	walkCycles, eptCycles := wr.Cycles, wr.EPTCycles
	if !wr.OK {
		// Demand page fault: the OS maps the page and the access
		// re-walks. The fault and retry count as one walk (one
		// initiated, one completed) so outcome accounting stays tied to
		// speculation rather than first-touch behaviour; the retry's
		// loads and cycles are still accrued.
		c.ctr.Inc(perf.PageFaults)
		if c.fault == nil {
			panic(fmt.Sprintf("cpu: fault at %#x with no handler", uint64(va)))
		}
		if _, err := c.fault(va); err != nil {
			panic(fmt.Sprintf("cpu: unhandled fault: %v", err))
		}
		c.charge(osFaultCycles)
		wr = c.walker.Walk(va, c.cr3, walker.NoBudget)
		c.accountWalk(isStore, wr)
		c.charge(float64(wr.Cycles) * c.cfg.CPU.WalkVisibility)
		walkCycles += wr.Cycles
		eptCycles += wr.EPTCycles
		if !wr.OK {
			panic(fmt.Sprintf("cpu: fault handler did not map %#x", uint64(va)))
		}
	}
	c.countWalkCompleted(isStore)
	c.countReplicaWalk(wr)
	c.lastWalkCycles, c.lastWalkLevel = walkCycles, pteLevel(wr.LeafLoc)
	c.sampleWalk(isStore, va, walkCycles, eptCycles, wr.LeafLoc, perf.OutcomeRetired)
	c.tlbs.Fill(va, wr.Frame, wr.Size)
	if c.cfg.TLBPrefetchNextPage {
		c.prefetchNextPage(va, wr.Size)
	}
	return wr.Frame, wr.Size
}

// prefetchNextPage walks the page following the one just demanded and
// installs the translation into the STLB. Prefetch walks run off the
// critical path (no visible cycle charge) but consume walker bandwidth
// and cache capacity like real walks; they are accounted in the
// tlb_prefetch.* event domain so the architectural dtlb_* events — and
// the Table VI outcome formulae on top of them — stay undistorted.
func (c *Core) prefetchNextPage(va arch.VAddr, ps arch.PageSize) {
	next := arch.PageBase(va, ps) + arch.VAddr(ps.Bytes())
	if _, hit := c.tlbs.STLB().Lookup(next); hit {
		return
	}
	c.ctr.Inc(perf.TLBPrefetchWalks)
	wr := c.walker.Walk(next, c.cr3, walker.NoBudget)
	c.ctr.Add(perf.TLBPrefetchCycles, wr.Cycles)
	if wr.OK {
		c.tlbs.FillSTLB(next, wr.Frame, wr.Size)
		c.ctr.Inc(perf.TLBPrefetchFills)
	}
}

// Branch retires one branch instruction with the given program counter and
// real outcome. A misprediction opens a wrong-path speculation window.
func (c *Core) Branch(pc uint64, taken bool) {
	c.ctr.Inc(perf.InstRetired)
	c.ctr.Inc(perf.Branches)
	c.charge(c.cfg.CPU.BaseCPI)
	predicted := c.pred.predict(pc)
	c.pred.update(pc, taken)
	if predicted == taken {
		return
	}
	c.ctr.Inc(perf.BranchMispredicts)
	if c.trk != nil {
		c.trk.Sync(c.CycleCount())
		c.trk.Instant(traceMispredict)
	}
	c.flushEpisode()
}

// flushEpisode models one pipeline flush (mispredict or machine clear):
// the resolve window is charged, and the wrong-path micro-ops that issued
// inside it perform speculative TLB lookups, walks, and cache accesses.
func (c *Core) flushEpisode() {
	// The resolve window stretches with the latency of the data feeding
	// the mispredicted branch; the 1.5 factor reflects short dependent
	// chains (load -> compare -> branch) beyond the single load.
	window := float64(c.cfg.CPU.PipelineDepth) + 1.5*c.recentLat
	c.charge(window)
	if c.ringLen == 0 || c.cfg.CPU.MaxWrongPathAccesses <= 0 {
		return
	}
	n := int(window * c.cfg.CPU.IssueWidth * c.accessesPerInstruction())
	if n < 1 {
		n = 1
	}
	if n > c.cfg.CPU.MaxWrongPathAccesses {
		n = c.cfg.CPU.MaxWrongPathAccesses
	}
	for i := 0; i < n; i++ {
		tstart := window * float64(i) / float64(n)
		c.wrongPathAccess(uint64(window - tstart))
	}
}

// wrongPathAccess issues one speculative access with the given cycle
// budget before the flush squashes it.
func (c *Core) wrongPathAccess(budget uint64) {
	va := c.wrongPathVA()
	var frame arch.PAddr
	var size arch.PageSize
	switch r := c.tlbs.Lookup(va); r.Level {
	case tlb.HitL1:
		frame, size = r.Entry.Frame, r.Entry.Size
	case tlb.HitSTLB:
		c.countSTLBHit(false)
		frame, size = r.Entry.Frame, r.Entry.Size
	default:
		// Speculative walk; counts as a load-side walk (stores do not
		// translate speculatively on the modelled machine).
		c.countWalkInitiated(false)
		wr := c.walker.Walk(va, c.cr3, budget)
		c.accountWalk(false, wr)
		if !wr.Completed {
			c.sampleWalk(false, va, wr.Cycles, wr.EPTCycles, wr.LeafLoc, perf.OutcomeAborted)
			if c.trk != nil {
				c.trk.Sync(c.CycleCount())
				c.trk.Instant(traceWalkSquash)
			}
			return // aborted: initiated but never completed
		}
		c.countWalkCompleted(false)
		c.countReplicaWalk(wr)
		c.sampleWalk(false, va, wr.Cycles, wr.EPTCycles, wr.LeafLoc, perf.OutcomeWrongPath)
		if c.trk != nil {
			c.trk.Sync(c.CycleCount())
			c.trk.Instant(traceWrongPath)
		}
		if !wr.OK {
			return // speculative fault is suppressed, no fill
		}
		c.tlbs.Fill(va, wr.Frame, wr.Size)
		frame, size = wr.Frame, wr.Size
	}
	// The wrong-path data access pollutes the caches but costs no
	// visible time (it executes under the flush window).
	c.caches.Access(frame + arch.PAddr(uint64(va)&size.Mask()))
}

// wrongPathVA synthesizes a plausible wrong-path address. Wrong-path
// micro-ops consume stale or mispredicted register values, so most of
// their addresses are valid heap pointers: a stride off a recent access
// or a revisit of one; only a small tail is wild garbage (which walks,
// faults, and is suppressed — as on hardware).
func (c *Core) wrongPathVA() arch.VAddr {
	r := c.rng.Float64()
	switch {
	case r < c.cfg.CPU.WrongPathNearFraction:
		base := c.ring[c.rng.Intn(c.ringLen)]
		stride := c.rng.Int63n(int64(c.cfg.CPU.WrongPathMaxStride)*2+1) - int64(c.cfg.CPU.WrongPathMaxStride)
		va := int64(base) + stride
		if va < int64(c.vaMin) {
			va = int64(c.vaMin)
		}
		if va > int64(c.vaMax) {
			va = int64(c.vaMax)
		}
		return arch.VAddr(va) &^ 7
	case r < 1-c.cfg.CPU.WrongPathWildFraction:
		// Stale pointer: an older working-set address (mapped, but only
		// TLB-resident while the footprint fits the TLB).
		return c.reservoir[c.rng.Intn(c.reservoirLen)]
	default:
		span := uint64(c.vaMax - c.vaMin)
		if span == 0 {
			return c.vaMin
		}
		return (c.vaMin + arch.VAddr(c.rng.Uint64()%span)) &^ 7
	}
}

// checkAlias models 4K-aliasing / memory-ordering machine clears: a load
// whose page offset matches a recent store to a *different* address may
// force a pipeline clear.
func (c *Core) checkAlias(va arch.VAddr) {
	e := c.aliases[(uint64(va)>>3)&0x1FF]
	if e.seq == 0 || e.va == va {
		return
	}
	if c.storeSeq-e.seq > uint64(c.cfg.CPU.StoreBufferSize) {
		return
	}
	if c.rng.Float64() >= c.cfg.CPU.ClearProbability {
		return
	}
	c.ctr.Inc(perf.MachineClears)
	c.ctr.Inc(perf.MachineClearsMemOrder)
	if c.trk != nil {
		c.trk.Sync(c.CycleCount())
		c.trk.Instant(traceMachineClear)
	}
	c.flushEpisode()
}

func (c *Core) recordStore(va arch.VAddr) {
	c.storeSeq++
	c.aliases[(uint64(va)>>3)&0x1FF] = aliasEntry{va: va, seq: c.storeSeq}
}

func (c *Core) noteVA(va arch.VAddr) {
	c.ring[c.ringPos] = va
	c.ringPos = (c.ringPos + 1) % len(c.ring)
	if c.ringLen < len(c.ring) {
		c.ringLen++
	}
	if c.reservoirLen < len(c.reservoir) {
		c.reservoir[c.reservoirLen] = va
		c.reservoirLen++
	} else if c.rng.Intn(8) == 0 {
		c.reservoir[c.rng.Intn(c.reservoirLen)] = va
	}
	if va < c.vaMin {
		c.vaMin = va
	}
	if va > c.vaMax {
		c.vaMax = va
	}
}

func (c *Core) accessesPerInstruction() float64 {
	inst := c.ctr.Get(perf.InstRetired)
	if inst == 0 {
		return 0.3
	}
	return float64(c.ctr.Get(perf.AllLoads)+c.ctr.Get(perf.AllStores)) / float64(inst)
}

// pteLevel maps the cache hit location of the leaf PTE load to the
// sample's level field.
func pteLevel(loc cache.HitLoc) perf.PTELevel {
	switch loc {
	case cache.HitL1:
		return perf.PTEL1
	case cache.HitL2:
		return perf.PTEL2
	case cache.HitL3:
		return perf.PTEL3
	default:
		return perf.PTEMem
	}
}

// sampleWalk offers one walk's record to every attached sampler, under
// both the walk-count and walk-cycle event domains — plus the EPT
// walk-duration domain when the walk spent cycles in the EPT dimension.
// Called at walk completion and abort; with no sampler attached it is
// one len check.
func (c *Core) sampleWalk(isStore bool, va arch.VAddr, cycles, eptCycles uint64, leaf cache.HitLoc, outcome perf.SampleOutcome) {
	if len(c.smp) == 0 {
		return
	}
	miss, dur := perf.DTLBLoadMissWalk, perf.DTLBLoadWalkDuration
	if isStore {
		miss, dur = perf.DTLBStoreMissWalk, perf.DTLBStoreWalkDuration
	}
	s := perf.Sample{
		VA:         uint64(va),
		Page:       uint64(arch.PageBase(va, arch.Page4K)),
		WalkCycles: cycles,
		Level:      pteLevel(leaf),
		Outcome:    outcome,
		Inst:       c.ctr.Get(perf.InstRetired),
	}
	for _, sp := range c.smp {
		sp.Offer(miss, 1, s)
		sp.Offer(dur, cycles, s)
		if eptCycles > 0 {
			sp.Offer(perf.EPTWalkDuration, eptCycles, s)
		}
	}
}

// sampleRetire offers one retired access's record to samplers armed on
// the mem_uops_retired events. The record carries the access's walk
// latency and leaf-PTE location when it walked (zero/none on TLB hits).
func (c *Core) sampleRetire(isStore bool, va arch.VAddr) {
	if len(c.smp) == 0 {
		return
	}
	ev := perf.AllLoads
	if isStore {
		ev = perf.AllStores
	}
	armed := false
	for _, sp := range c.smp {
		if sp.Armed(ev) {
			armed = true
			break
		}
	}
	if !armed {
		return
	}
	s := perf.Sample{
		VA:         uint64(va),
		Page:       uint64(arch.PageBase(va, arch.Page4K)),
		WalkCycles: c.lastWalkCycles,
		Level:      c.lastWalkLevel,
		Outcome:    perf.OutcomeRetired,
		Inst:       c.ctr.Get(perf.InstRetired),
	}
	for _, sp := range c.smp {
		sp.Offer(ev, 1, s)
	}
}

// accountWalk books a walk's cycles and PTE-load locations, split per
// dimension when virtualized. The invariant, native walks included, is
// walk_duration == walk_duration_guest + ept_misses.walk_duration
// (native walks have no EPT share, so they count fully as guest).
func (c *Core) accountWalk(isStore bool, wr walker.Result) {
	guestCycles := wr.Cycles - wr.EPTCycles
	if isStore {
		c.ctr.Add(perf.DTLBStoreWalkDuration, wr.Cycles)
		c.ctr.Add(perf.DTLBStoreWalkDurationGuest, guestCycles)
	} else {
		c.ctr.Add(perf.DTLBLoadWalkDuration, wr.Cycles)
		c.ctr.Add(perf.DTLBLoadWalkDurationGuest, guestCycles)
	}
	if wr.GuestPSCHit {
		c.ctr.Inc(perf.GuestWalkSTLBHit)
	}
	c.ctr.Add(perf.WalkerLoadsL1, uint64(wr.Locs[cache.HitL1]))
	c.ctr.Add(perf.WalkerLoadsL2, uint64(wr.Locs[cache.HitL2]))
	c.ctr.Add(perf.WalkerLoadsL3, uint64(wr.Locs[cache.HitL3]))
	c.ctr.Add(perf.WalkerLoadsMem, uint64(wr.Locs[cache.HitMem]))

	// Scheme dimension (all zero for the built-in engines). Block probes
	// count per Walk call — the fault-retry walk probes again, exactly
	// like its PTE loads are re-charged — while the DRAM-cache split
	// rides the per-load Locs accounting it partitions.
	if wr.BlockProbed {
		if wr.BlockHit {
			c.ctr.Inc(perf.SchemeBlockHits)
		} else {
			c.ctr.Inc(perf.SchemeBlockMisses)
		}
	}
	c.ctr.Add(perf.DRAMCacheHits, uint64(wr.DCHits))
	c.ctr.Add(perf.DRAMCacheMisses, uint64(wr.DCMisses))

	// EPT dimension (all zero for native walks).
	c.ctr.Add(perf.EPTMissWalk, uint64(wr.NTLBMisses))
	c.ctr.Add(perf.EPTWalkCompleted, uint64(wr.EPTWalks))
	c.ctr.Add(perf.EPTWalkDuration, wr.EPTCycles)
	c.ctr.Add(perf.EPTWalkSTLBHit, uint64(wr.NTLBHits))
	c.ctr.Add(perf.EPTWalkerLoadsL1, uint64(wr.EPTLocs[cache.HitL1]))
	c.ctr.Add(perf.EPTWalkerLoadsL2, uint64(wr.EPTLocs[cache.HitL2]))
	c.ctr.Add(perf.EPTWalkerLoadsL3, uint64(wr.EPTLocs[cache.HitL3]))
	c.ctr.Add(perf.EPTWalkerLoadsMem, uint64(wr.EPTLocs[cache.HitMem]))
}

func (c *Core) countWalkInitiated(isStore bool) {
	if isStore {
		c.ctr.Inc(perf.DTLBStoreMissWalk)
	} else {
		c.ctr.Inc(perf.DTLBLoadMissWalk)
	}
}

func (c *Core) countWalkCompleted(isStore bool) {
	if isStore {
		c.ctr.Inc(perf.DTLBStoreWalkCompleted)
	} else {
		c.ctr.Inc(perf.DTLBLoadWalkCompleted)
	}
}

// countReplicaWalk classifies a completed walk under page-table
// replication. It sits exactly beside countWalkCompleted (demand walks
// count once, after the fault retry; aborted wrong-path walks never
// reach it), giving the scheme identity
// replica_local_walks + replica_remote_walks == walk_completed.
func (c *Core) countReplicaWalk(wr walker.Result) {
	switch wr.Replica {
	case walker.ReplicaLocal:
		c.ctr.Inc(perf.ReplicaLocalWalks)
	case walker.ReplicaRemote:
		c.ctr.Inc(perf.ReplicaRemoteWalks)
	}
}

func (c *Core) countSTLBHit(isStore bool) {
	if isStore {
		c.ctr.Inc(perf.DTLBStoreSTLBHit)
	} else {
		c.ctr.Inc(perf.DTLBLoadSTLBHit)
	}
}

func (c *Core) countSTLBMissRetired(isStore bool) {
	if isStore {
		c.ctr.Inc(perf.STLBMissStores)
	} else {
		c.ctr.Inc(perf.STLBMissLoads)
	}
}
