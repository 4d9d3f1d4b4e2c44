package scheme

import (
	"atscale/internal/arch"
	"atscale/internal/assoc"
	"atscale/internal/mmucache"
	"atscale/internal/perf"
	"atscale/internal/refute"
	"atscale/internal/walker"
)

// victimaScheme models Victima (Kanellopoulos et al.): the underutilized
// L2/L3 capacity caches *PTE blocks* — whole last-level page-table pages
// — so a TLB miss whose block is cached skips the upper radix levels and
// costs a single leaf PTE load. The model keeps a set-associative
// PTE-block directory mapping a VA 2 MB block (one PT page's reach) to
// the physical PT page holding its leaves; the leaf load itself travels
// through the real L2/L3 model, so block-cached PT pages compete for
// SRAM capacity with data exactly as in the paper. Insertion is
// TLB-pressure-driven: only completed 4 KB walks the paging-structure
// caches could not already short-circuit to one load install their
// block, so a TLB-friendly workload never pollutes the cache.
type victimaScheme struct{}

// Victima directory defaults: 16 K blocks tracks 32 GB of 4 KB-mapped
// reach at 8-way associativity.
const (
	victimaDefaultEntries = 16384
	victimaWays           = 8
	// victimaInsertMinLoads gates insertion on walk pressure: a walk the
	// PSCs already served in one load gains nothing from block caching.
	victimaInsertMinLoads = 2
)

func (victimaScheme) Name() string { return "victima" }

func (victimaScheme) Doc() string {
	return "Victima-style PTE blocks cached in L2/L3 with pressure-driven insertion"
}

func (victimaScheme) Build(d Deps) (Instance, error) {
	entries := d.Cfg.SchemeParams.VictimaEntries
	if entries == 0 {
		entries = victimaDefaultEntries
	}
	return &victima{
		Walker: walker.New(d.Phys, mmucache.NewWithDepth(d.Cfg.PSC, d.Cfg.PagingLevels), d.Caches),
		dir:    assoc.New[uint64, arch.PAddr]((entries+victimaWays-1)/victimaWays, victimaWays),
	}, nil
}

func (victimaScheme) Events() []perf.Event {
	return []perf.Event{perf.SchemeBlockHits, perf.SchemeBlockMisses}
}

func (victimaScheme) Identities() []refute.Identity {
	blockProbes := refute.Sum(refute.Ev("scheme_walk_loads.block_hit"),
		refute.Ev("scheme_walk_loads.block_miss"))
	return []refute.Identity{
		{
			Name: "victima_probe_conservation",
			Doc: "every accounted walk probes the PTE-block directory exactly once " +
				"(fault retries re-probe like they re-load, prefetch walks count in neither domain)",
			L: blockProbes, Rel: refute.EQ,
			R: refute.Sum(refute.Ev("dtlb_load_misses.miss_causes_a_walk"),
				refute.Ev("dtlb_store_misses.miss_causes_a_walk"),
				refute.Ev("faults")),
			Guards: []refute.Expr{blockProbes},
		},
	}
}

// victima is one machine's Victima walk state: the radix walker plus the
// PTE-block directory, keyed by VA 2 MB block, whose set count is the
// requested entries rounded up to whole sets.
type victima struct {
	*walker.Walker
	dir assoc.Array[uint64, arch.PAddr]
}

// Walk implements walker.Engine: probe the PTE-block directory first; a
// hit short-circuits to the single leaf load, a miss takes the normal
// radix walk (PSC entry point included) and, under pressure, installs
// the block.
//
//atlint:hotpath
func (v *victima) Walk(va arch.VAddr, cr3 arch.PAddr, budget uint64) walker.Result {
	var r walker.Result
	var p walker.Path
	v.BeginSpan()
	r.BlockProbed = true
	block := uint64(va) >> arch.PageShift2M
	set := v.dir.SetOf(block)
	if base, ok := v.dir.Lookup(set, block); ok {
		// The cached block located the PT page: the walk is its one leaf
		// load. The entry may still be non-present (a not-yet-faulted
		// page sharing the block) — a page fault, whose retry hits the
		// block again with the entry filled in.
		r.BlockHit = true
		v.Resolve(&p, va, arch.LevelPT, base, 1)
	} else {
		v.Descend(&p, va, cr3, &r)
	}
	v.Charge(&p, va, budget, nil, &r, true)
	if r.OK && r.Size == arch.Page4K && r.Loads >= victimaInsertMinLoads {
		// A pressured miss (a block hit is one load): the walk's last
		// entry address sits inside the leaf PT page, and its 4 KB base
		// is the block payload.
		v.dir.Insert(set, block, arch.PAddr(arch.AlignDown(uint64(p.LastEntry()), arch.Page4K.Bytes())))
	}
	v.EndSpan(&r)
	return r
}

// Flush implements walker.Engine: the directory is keyed by virtual
// block, so a context switch drops it along with the PSCs.
func (v *victima) Flush() {
	v.Walker.Flush()
	v.dir.Flush()
}

// InvalidateBlock implements walker.Engine: promotion replaces the PT
// page with a 2 MB leaf, so the covering block entry (and PDE-cache
// entry) must go.
func (v *victima) InvalidateBlock(va arch.VAddr) {
	v.Walker.InvalidateBlock(va)
	block := uint64(va) >> arch.PageShift2M
	v.dir.Invalidate(v.dir.SetOf(block), block)
}

// Reset implements walker.Engine.
func (v *victima) Reset() {
	v.Walker.Reset()
	v.dir.Flush()
}

// BlockDirLive returns the number of valid PTE-block directory entries
// (test/debug helper).
func (v *victima) BlockDirLive() int { return v.dir.Live() }
