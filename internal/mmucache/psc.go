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
	"atscale/internal/arch"
	"atscale/internal/assoc"
)

// PSC is the set of paging-structure caches, one per non-leaf level.
type PSC struct {
	// byLevel[l] caches entries *read at* level l, i.e. pointers to the
	// level l-1 table, as one fully-associative set keyed by the
	// level's VA prefix. Indexed by arch.Level (2..top used).
	byLevel [arch.LevelPML5 + 1]assoc.Array[uint64, arch.PAddr]
	// top is the radix root level (PML4 or PML5).
	top arch.Level
}

// New builds the PSCs of a 4-level machine with the configured entry
// counts.
func New(g arch.PSCGeometry) *PSC { return NewWithDepth(g, 4) }

// NewWithDepth builds the PSCs for a machine with the given paging depth.
func NewWithDepth(g arch.PSCGeometry, levels int) *PSC {
	p := &PSC{top: arch.RootLevel(levels)}
	p.byLevel[arch.LevelPD] = assoc.New[uint64, arch.PAddr](1, g.PDEntries)
	p.byLevel[arch.LevelPDPT] = assoc.New[uint64, arch.PAddr](1, g.PDPTEntries)
	p.byLevel[arch.LevelPML4] = assoc.New[uint64, arch.PAddr](1, g.PML4Entries)
	if p.top == arch.LevelPML5 {
		p.byLevel[arch.LevelPML5] = assoc.New[uint64, arch.PAddr](1, g.PML5Entries)
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
		if base, ok := p.byLevel[l].Lookup(0, l.Prefix(va)); ok {
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
	p.byLevel[level].Insert(0, level.Prefix(va), nextBase)
}

// InvalidatePrefix removes any cached entry covering va at the given level.
func (p *PSC) InvalidatePrefix(level arch.Level, va arch.VAddr) {
	if level < arch.LevelPD || level > p.top {
		return
	}
	p.byLevel[level].Invalidate(0, level.Prefix(va))
}

// Flush empties every cache.
func (p *PSC) Flush() {
	for l := arch.LevelPD; l <= p.top; l++ {
		p.byLevel[l].Flush()
	}
}

// Reset returns every cache to its just-constructed state: empty.
func (p *PSC) Reset() { p.Flush() }

// Live returns the number of valid entries in the cache of level-l entries
// (test/debug helper).
func (p *PSC) Live(l arch.Level) int { return p.byLevel[l].Live() }

// Top returns the radix root level the PSCs were built for.
func (p *PSC) Top() arch.Level { return p.top }
