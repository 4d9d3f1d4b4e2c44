// Package cache models the data-cache hierarchy of the simulated machine.
// Demand accesses and page-table-walker loads share the same arrays, so
// PTEs compete with program data for capacity — the interaction behind the
// paper's PTE-hotness results (Fig. 8) and the mcf "PTEs outcompete data"
// anomaly (§V-C).
//
// Caches are set-associative with true LRU by default. Only presence is modelled (no
// data movement): a line address either hits or misses, and the hierarchy
// converts the first hit level into a load-to-use latency.
//
// A way holds a 32-bit set-relative tag, not the 64-bit line address:
// the line's quotient by the level's set count, whose remainder is the
// set. Set and tag together name the line exactly as long as every tag
// stays below the empty-way sentinel, math.MaxUint32, and
// arch.SystemConfig.Validate guarantees that: it rejects a machine whose
// largest physical line, divided by any level's set count, reaches it
// (16 TiB of physical memory at 64 sets). Half-width tags keep Table
// III's 30 MB L3 array at 1.875 MiB, small enough to stay mostly in a
// host core's L2.
package cache

import (
	"math/bits"

	"atscale/internal/arch"
)

// invalidTag marks an empty way: math.MaxUint32, which no line's tag
// reaches on a machine that arch.SystemConfig.Validate accepts.
const invalidTag = arch.CacheTagLimit

// replKind is a replacement policy decoded to a branch-cheap enum at
// construction. The config names policies as strings; comparing those
// per reference would put string compares in the hierarchy's hottest
// loop.
type replKind uint8

const (
	replLRU replKind = iota
	replRandom
	replNRU
)

// Cache is one set-associative level. Line addresses are physical addresses
// shifted right by the cache-line shift; the caller does the shifting once
// so all three levels share it.
type Cache struct {
	sets    uint64
	ways    uint64
	latency uint64
	kind    replKind

	// tags holds each set's ways as 32-bit set-relative tags, each
	// line's quotient by sets (see locate); arch.SystemConfig.Validate
	// keeps every physical line's tag below invalidTag, so a tag names
	// one line of its set. Under LRU a set is kept in recency order,
	// most recent first, with its invalid ways at the tail, so the
	// victim is always the last way and exact LRU needs no per-way age.
	// Random and NRU choose a physical way index, so their lines stay
	// in the way they were filled.
	tags []uint32
	// stamp holds NRU's per-way reference bits; it is nil under the
	// other policies.
	stamp []uint64
	// rng is the random policy's xorshift state.
	rng uint64

	// mask is sets-1 and shift log2(sets) when the set count is a power
	// of two (pow2), letting the per-access set index and tag be an AND
	// and a shift instead of a runtime division. Table III's L3 (24576
	// sets) is not a power of two, so the division path stays
	// load-bearing.
	mask  uint64
	shift uint64
	pow2  bool
}

// rngSeed is the random policy's fixed xorshift seed.
const rngSeed = 0x853C49E6748FEA9B

// locate returns the first way index of the line's set and the line's
// tag within it: the remainder and quotient of one division by the set
// count, which the compiler emits as one instruction.
func (c *Cache) locate(line uint64) (base uint64, tag uint32) {
	if c.pow2 {
		return (line & c.mask) * c.ways, uint32(line >> c.shift)
	}
	return (line % c.sets) * c.ways, uint32(line / c.sets)
}

// New builds a cache from its geometry.
func New(g arch.CacheGeometry) *Cache {
	lines := g.SizeBytes / arch.CacheLineSize
	sets := uint64(lines / g.Ways)
	kind := replLRU
	switch g.Replacement {
	case arch.ReplaceRandom:
		kind = replRandom
	case arch.ReplaceNRU:
		kind = replNRU
	}
	c := &Cache{
		sets:    sets,
		ways:    uint64(g.Ways),
		latency: g.Latency,
		kind:    kind,
		tags:    make([]uint32, lines),
		rng:     rngSeed,
	}
	if kind == replNRU {
		c.stamp = make([]uint64, lines)
	}
	if sets > 0 && sets&(sets-1) == 0 {
		c.pow2, c.mask, c.shift = true, sets-1, uint64(bits.TrailingZeros64(sets))
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Reset returns the cache to its just-constructed state: every way
// invalid, NRU reference bits cleared, the random state reseeded. A
// reset cache is indistinguishable from a freshly built one, which is
// what lets campaign machines be pooled without breaking determinism.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.stamp)
	c.rng = rngSeed
}

// Latency returns the level's load-to-use latency in cycles.
func (c *Cache) Latency() uint64 { return c.latency }

// Lookup probes for the line and refreshes its recency state on a hit. It
// does not allocate on a miss (the hierarchy decides fills).
func (c *Cache) Lookup(line uint64) bool { return c.probe(c.locate(line)) }

// probe is Lookup of the tag in the set starting at base. A hit on way
// 0 changes no recency state under any policy, so that check is inlined
// into the hierarchy's access; every other probe scans the set. (Way 0 is an LRU
// set's most recent line, and a valid NRU way 0 always has its
// reference bit set: the only bulk clear refills way 0 at once.)
//
//atlint:hotpath
//atlint:inline
func (c *Cache) probe(base uint64, tag uint32) bool {
	if c.tags[base] == tag {
		return true
	}
	return c.scan(base, tag)
}

// scan is probe's way scan. A hit moves an LRU line to the front of its
// set and sets an NRU line's reference bit; random keeps no recency.
//
//atlint:hotpath
func (c *Cache) scan(base uint64, tag uint32) bool {
	set := c.tags[base : base+c.ways]
	for w, t := range set {
		if t != tag {
			continue
		}
		switch c.kind {
		case replLRU:
			copy(set[1:w+1], set[:w])
			set[0] = tag
		case replNRU:
			c.stamp[base+uint64(w)] = 1
		}
		return true
	}
	return false
}

// insert fills a tag that the last probe of its set, at base, missed.
// An LRU set shifts down one way, dropping its last (least recent or
// invalid) way, and takes the tag at the front.
//
//atlint:hotpath
func (c *Cache) insert(base uint64, tag uint32) {
	set := c.tags[base : base+c.ways]
	if c.kind == replLRU {
		copy(set[1:], set)
		set[0] = tag
		return
	}
	i := c.victim(base)
	c.tags[i] = tag
	if c.stamp != nil {
		c.stamp[i] = 1
	}
}

// victim picks the way a random or NRU set fills: its first invalid way,
// else the policy's choice.
func (c *Cache) victim(base uint64) uint64 {
	for w := uint64(0); w < c.ways; w++ {
		if c.tags[base+w] == invalidTag {
			return base + w
		}
	}
	if c.kind == replRandom {
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		return base + c.rng%c.ways
	}
	for w := uint64(0); w < c.ways; w++ {
		if c.stamp[base+w] == 0 {
			return base + w
		}
	}
	// All referenced: clear the set's bits and take way 0.
	clear(c.stamp[base : base+c.ways])
	return base
}

// Fill inserts the line, evicting a victim if the set is full. Filling a
// line that is already present only refreshes its recency state.
func (c *Cache) Fill(line uint64) {
	base, tag := c.locate(line)
	if !c.probe(base, tag) {
		c.insert(base, tag)
	}
}

// Invalidate removes the line if present. An LRU set closes the gap, so
// its invalid ways stay at the tail.
func (c *Cache) Invalidate(line uint64) {
	base, tag := c.locate(line)
	set := c.tags[base : base+c.ways]
	for w, t := range set {
		if t != tag {
			continue
		}
		if c.kind == replLRU {
			copy(set[w:], set[w+1:])
			set[len(set)-1] = invalidTag
			return
		}
		set[w] = invalidTag
		if c.stamp != nil {
			c.stamp[base+uint64(w)] = 0
		}
		return
	}
}

// Contains probes without touching recency state (test/debug helper).
func (c *Cache) Contains(line uint64) bool {
	base, tag := c.locate(line)
	for w := uint64(0); w < c.ways; w++ {
		if c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// HitLoc identifies where in the hierarchy an access was satisfied. The
// names mirror the Haswell PAGE_WALKER_LOADS.DTLB_* event suffixes.
type HitLoc uint8

const (
	// HitL1 means the line was found in the L1 data cache.
	HitL1 HitLoc = iota
	// HitL2 means the line was found in the L2 cache.
	HitL2
	// HitL3 means the line was found in the shared L3 cache.
	HitL3
	// HitMem means the access went to DRAM.
	HitMem
	// NumHitLocs is the number of hit locations.
	NumHitLocs
)

// String implements fmt.Stringer.
func (h HitLoc) String() string {
	switch h {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitL3:
		return "L3"
	case HitMem:
		return "Memory"
	}
	return "?"
}

// Hierarchy is the three-level cache stack plus DRAM.
type Hierarchy struct {
	l1, l2, l3 *Cache
	dram       uint64
}

// NewHierarchy builds the hierarchy described by cfg.
func NewHierarchy(cfg *arch.SystemConfig) *Hierarchy {
	return &Hierarchy{
		l1:   New(cfg.L1D),
		l2:   New(cfg.L2),
		l3:   New(cfg.L3),
		dram: cfg.DRAMLatency,
	}
}

// Access performs a load of the line containing pa: it returns the
// load-to-use latency and the level that satisfied it, then fills the line
// into every level above the hit (mostly-inclusive, as on Haswell). Each
// level is probed once; the levels that missed fill from that probe.
//
//atlint:hotpath
func (h *Hierarchy) Access(pa arch.PAddr) (latency uint64, loc HitLoc) {
	line := uint64(pa) >> 6 // arch.CacheLineSize == 64
	b1, t1 := h.l1.locate(line)
	if h.l1.probe(b1, t1) {
		return h.l1.latency, HitL1
	}
	b2, t2 := h.l2.locate(line)
	if h.l2.probe(b2, t2) {
		h.l1.insert(b1, t1)
		return h.l2.latency, HitL2
	}
	b3, t3 := h.l3.locate(line)
	if h.l3.probe(b3, t3) {
		h.l1.insert(b1, t1)
		h.l2.insert(b2, t2)
		return h.l3.latency, HitL3
	}
	h.l1.insert(b1, t1)
	h.l2.insert(b2, t2)
	h.l3.insert(b3, t3)
	return h.dram, HitMem
}

// Reset restores every level to its just-constructed state.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	h.l3.Reset()
}

// Latency returns the load-to-use latency of the given hit location.
func (h *Hierarchy) Latency(loc HitLoc) uint64 {
	switch loc {
	case HitL1:
		return h.l1.latency
	case HitL2:
		return h.l2.latency
	case HitL3:
		return h.l3.latency
	default:
		return h.dram
	}
}

// L1 exposes the first-level cache (test/debug helper).
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 exposes the second-level cache (test/debug helper).
func (h *Hierarchy) L2() *Cache { return h.l2 }

// L3 exposes the last-level cache (test/debug helper).
func (h *Hierarchy) L3() *Cache { return h.l3 }
