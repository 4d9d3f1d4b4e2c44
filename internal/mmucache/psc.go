// Package mmucache models Intel's paging-structure caches (PSCs): small
// fully-associative caches that let the page-table walker skip loads at or
// near the top of the radix tree ("skip, don't walk", Barr et al.). One
// cache exists per non-leaf entry kind:
//
//   - the PML4E cache maps VA[47:39] to the PDPT page that PML4E points at,
//   - the PDPTE cache maps VA[47:30] to the PD page,
//   - the PDE cache maps VA[47:21] to the PT page.
//
// On a TLB miss the walker starts from the deepest hit, so a PDE-cache hit
// turns a 4-load walk into a single PTE load.
//
// Because these caches are tiny and see only the TLB-miss residual stream,
// they are the locus of the paper's TLB filtering effect (§V-C): the
// observations reaching them are sparser — and less local — the better the
// TLB performs.
package mmucache

import (
	"slices"

	"atscale/internal/arch"
)

type entry struct {
	prefix uint64
	base   arch.PAddr
}

// levelCache is one fully-associative PSC array. Its live entries are a
// slice in recency order, most recent first; the slice's capacity is
// the array's size, so the victim of a full array is its last entry.
type levelCache struct {
	entries []entry
}

func newLevelCache(n int) *levelCache {
	return &levelCache{entries: make([]entry, 0, n)}
}

//atlint:hotpath
func (c *levelCache) lookup(prefix uint64) (arch.PAddr, bool) {
	for i, e := range c.entries {
		if e.prefix == prefix {
			toFront(c.entries, i, e)
			return e.base, true
		}
	}
	return 0, false
}

// insert caches prefix -> base at the front, refreshing the entry
// already holding prefix or else evicting the last entry of a full
// array.
//
//atlint:hotpath
func (c *levelCache) insert(prefix uint64, base arch.PAddr) {
	w := len(c.entries)
	for i, e := range c.entries {
		if e.prefix == prefix {
			w = i
			break
		}
	}
	c.entries = toFront(c.entries, w, entry{prefix: prefix, base: base})
}

// toFront writes v at the front of the recency-ordered s, shifting the
// entries ahead of way w down by one. w < len(s) replaces s[w]; w ==
// len(s) adds v, growing s within its capacity or, in a full array,
// dropping its last entry.
//
//atlint:hotpath
func toFront[E any](s []E, w int, v E) []E {
	if w == len(s) {
		if w == cap(s) {
			if w == 0 {
				return s
			}
			w--
		} else {
			s = s[:w+1]
		}
	}
	copy(s[1:w+1], s[:w])
	s[0] = v
	return s
}

// invalidate drops prefix's entry if present.
func (c *levelCache) invalidate(prefix uint64) {
	for i, e := range c.entries {
		if e.prefix == prefix {
			c.entries = slices.Delete(c.entries, i, i+1)
			return
		}
	}
}

func (c *levelCache) flush() { c.entries = c.entries[:0] }

// PSC is the set of paging-structure caches, one per non-leaf level.
type PSC struct {
	// byLevel[l] caches entries *read at* level l, i.e. pointers to the
	// level l-1 table. Indexed by arch.Level (2..top used).
	byLevel [arch.LevelPML5 + 1]*levelCache
	// top is the radix root level (PML4 or PML5).
	top arch.Level
}

// New builds the PSCs of a 4-level machine with the configured entry
// counts.
func New(g arch.PSCGeometry) *PSC { return NewWithDepth(g, 4) }

// NewWithDepth builds the PSCs for a machine with the given paging depth.
func NewWithDepth(g arch.PSCGeometry, levels int) *PSC {
	p := &PSC{top: arch.RootLevel(levels)}
	p.byLevel[arch.LevelPD] = newLevelCache(g.PDEntries)
	p.byLevel[arch.LevelPDPT] = newLevelCache(g.PDPTEntries)
	p.byLevel[arch.LevelPML4] = newLevelCache(g.PML4Entries)
	if p.top == arch.LevelPML5 {
		p.byLevel[arch.LevelPML5] = newLevelCache(g.PML5Entries)
	}
	return p
}

// LookupDeepest finds the deepest cached partial walk for va, considering
// only caches at or above minEntryLevel (the walk's leaf entry level: PSCs
// cache non-leaf entries only, so a 2 MB walk cannot use the PDE cache).
//
// It returns the level of the next entry the walker must load and the
// physical base of the table page holding it. With no hit, that is
// (LevelPML4, cr3).
func (p *PSC) LookupDeepest(va arch.VAddr, leafLevel arch.Level, cr3 arch.PAddr) (arch.Level, arch.PAddr) {
	// A hit in the cache of level l entries supplies the level l-1 table,
	// so search upward starting from the cache of (leafLevel+1) entries.
	for l := leafLevel + 1; l <= p.top; l++ {
		if base, ok := p.byLevel[l].lookup(l.Prefix(va)); ok {
			return l - 1, base
		}
	}
	return p.top, cr3
}

// Insert caches a non-leaf entry the walker just read: the entry at the
// given level for va pointed at the table page nextBase.
func (p *PSC) Insert(level arch.Level, va arch.VAddr, nextBase arch.PAddr) {
	if level < arch.LevelPD || level > p.top {
		return
	}
	p.byLevel[level].insert(level.Prefix(va), nextBase)
}

// InvalidatePrefix removes any cached entry covering va at the given level.
func (p *PSC) InvalidatePrefix(level arch.Level, va arch.VAddr) {
	if level < arch.LevelPD || level > p.top {
		return
	}
	p.byLevel[level].invalidate(level.Prefix(va))
}

// Flush empties every cache.
func (p *PSC) Flush() {
	for l := arch.LevelPD; l <= p.top; l++ {
		p.byLevel[l].flush()
	}
}

// Reset returns every cache to its just-constructed state: empty.
func (p *PSC) Reset() { p.Flush() }

// Live returns the number of valid entries in the cache of level-l entries
// (test/debug helper).
func (p *PSC) Live(l arch.Level) int { return len(p.byLevel[l].entries) }

// Top returns the radix root level the PSCs were built for.
func (p *PSC) Top() arch.Level { return p.top }
