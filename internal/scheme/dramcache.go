package scheme

import (
	"atscale/internal/arch"
	"atscale/internal/assoc"
	"atscale/internal/cache"
	"atscale/internal/mmucache"
	"atscale/internal/perf"
	"atscale/internal/refute"
	"atscale/internal/walker"
)

// dramCacheScheme models a Patil-style die-stacked DRAM cache under the
// SRAM hierarchy: a PTE load that misses L1/L2/L3 probes the stacked
// die's tag array and, on a hit, is served at the stacked-DRAM latency
// instead of the off-package DRAM latency; a miss pays a tag-check
// penalty on top of the off-package access and fills the block. The
// cache is physically indexed (a tag array over 4 KB blocks), so it
// survives context switches like the data caches do — only the radix
// walk's SRAM-missing loads are repriced, which isolates the stacked
// die's effect on translation from its effect on data (the paper's
// walker-loads decomposition makes that split measurable).
type dramCacheScheme struct{}

// dcWays is the DRAM cache's associativity.
const dcWays = 16

func (dramCacheScheme) Name() string { return "dramcache" }

func (dramCacheScheme) Doc() string {
	return "die-stacked DRAM cache under the walker with a hit/miss latency split"
}

func (dramCacheScheme) Build(d Deps) (Instance, error) {
	bytes := d.Cfg.SchemeParams.EffectiveDRAMCacheBytes()
	hitLat := d.Cfg.SchemeParams.EffectiveDRAMCacheHitLatency()
	missPen := d.Cfg.SchemeParams.EffectiveDRAMCacheMissPenalty()
	return &dramCache{
		Walker:  walker.New(d.Phys, mmucache.NewWithDepth(d.Cfg.PSC, d.Cfg.PagingLevels), d.Caches),
		dir:     assoc.New[uint64, arch.PAddr](int(bytes>>arch.PageShift4K+dcWays-1)/dcWays, dcWays),
		hitLat:  hitLat,
		missPen: missPen,
		dram:    d.Cfg.DRAMLatency,
	}, nil
}

func (dramCacheScheme) Events() []perf.Event {
	return []perf.Event{perf.DRAMCacheHits, perf.DRAMCacheMisses}
}

func (dramCacheScheme) Identities() []refute.Identity {
	dcProbes := refute.Sum(refute.Ev("dramcache_hits"), refute.Ev("dramcache_misses"))
	return []refute.Identity{
		{
			Name: "dramcache_mem_partition",
			Doc: "every SRAM-missing walker load probes the stacked die exactly once, " +
				"so hits + misses equals the walker's memory-served loads",
			L: dcProbes, Rel: refute.EQ,
			R:      refute.Ev("page_walker_loads.dtlb_memory"),
			Guards: []refute.Expr{dcProbes},
		},
		{
			Name: "dramcache_hits_le_walker_loads",
			Doc: "stacked-die hits are a subset of walker loads " +
				"(trivially 0 <= loads under every other scheme)",
			L: refute.Ev("dramcache_hits"), Rel: refute.LE,
			R: refute.Sum(refute.Ev("page_walker_loads.dtlb_l1"),
				refute.Ev("page_walker_loads.dtlb_l2"),
				refute.Ev("page_walker_loads.dtlb_l3"),
				refute.Ev("page_walker_loads.dtlb_memory")),
		},
	}
}

// dramCache is one machine's die-stacked-cache walk state: the radix
// walker plus the stacked die's tag array.
type dramCache struct {
	*walker.Walker
	// dir is the PA 4 KB-block tag array (payload unused); its set
	// count is the die's blocks rounded up to whole sets.
	dir assoc.Array[uint64, arch.PAddr]

	hitLat  uint64 // stacked-die access latency
	missPen uint64 // tag-check penalty added to an off-package access
	dram    uint64 // cfg.DRAMLatency, the cost Access charged for HitMem

	// dcHits / dcMisses are per-walk probe scratch (accumulated by
	// AdjustLoad, copied into the Result after charging).
	//
	//atlint:noreset per-walk scratch: Walk zeroes both before accumulating, so nothing survives into the next walk
	dcHits, dcMisses uint16
}

// AdjustLoad implements walker.LoadAdjuster: SRAM hits are untouched; an
// SRAM-missing load probes the stacked die's tags. Hierarchy Access
// charged exactly dram for a HitMem load, so a tag hit reprices it to
// hitLat with a hitLat-dram delta and a miss adds the tag-check penalty
// and fills the block.
func (c *dramCache) AdjustLoad(pa arch.PAddr, loc cache.HitLoc) int64 {
	if loc != cache.HitMem {
		return 0
	}
	block := uint64(pa) >> arch.PageShift4K
	set := c.dir.SetOf(block)
	if _, ok := c.dir.Lookup(set, block); ok {
		c.dcHits++
		return int64(c.hitLat) - int64(c.dram)
	}
	c.dcMisses++
	c.dir.Insert(set, block, 0)
	return int64(c.missPen)
}

// Walk implements walker.Engine: a standard radix walk whose
// SRAM-missing loads are repriced through the stacked die.
//
//atlint:hotpath
func (c *dramCache) Walk(va arch.VAddr, cr3 arch.PAddr, budget uint64) walker.Result {
	var r walker.Result
	var p walker.Path
	c.BeginSpan()
	c.dcHits, c.dcMisses = 0, 0
	c.Descend(&p, va, cr3, &r)
	c.Charge(&p, va, budget, c, &r, true)
	r.DCHits, r.DCMisses = c.dcHits, c.dcMisses
	c.EndSpan(&r)
	return r
}

// Flush and InvalidateBlock are the embedded walker's: only the VA-keyed
// PSCs drop on a context switch or a promotion — the stacked die is
// physically indexed and keeps its contents, exactly like the SRAM data
// caches above it.

// Reset implements walker.Engine.
func (c *dramCache) Reset() {
	c.Walker.Reset()
	c.dir.Flush()
}

// TagsLive returns the number of valid stacked-die tag entries
// (test/debug helper).
func (c *dramCache) TagsLive() int { return c.dir.Live() }
