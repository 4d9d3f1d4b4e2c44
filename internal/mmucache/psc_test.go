package mmucache

import (
	"testing"

	"atscale/internal/arch"
)

const cr3 = arch.PAddr(0x1000)

func newPSC() *PSC {
	return New(arch.PSCGeometry{PML4Entries: 2, PDPTEntries: 4, PDEntries: 8})
}

func TestColdLookupStartsAtRoot(t *testing.T) {
	p := newPSC()
	level, base := p.LookupDeepest(0x12345678, arch.LevelPT, cr3)
	if level != arch.LevelPML4 || base != cr3 {
		t.Fatalf("cold = %v, %#x; want PML4, cr3", level, uint64(base))
	}
}

func TestDeepestHitWins(t *testing.T) {
	p := newPSC()
	va := arch.VAddr(0x7f00_1234_5000)
	p.Insert(arch.LevelPML4, va, 0x2000) // PDPT base
	p.Insert(arch.LevelPDPT, va, 0x3000) // PD base
	p.Insert(arch.LevelPD, va, 0x4000)   // PT base

	level, base := p.LookupDeepest(va, arch.LevelPT, cr3)
	if level != arch.LevelPT || base != 0x4000 {
		t.Fatalf("deepest = %v, %#x; want PT, 0x4000", level, uint64(base))
	}
}

func TestLeafLevelExcludesPDECacheFor2M(t *testing.T) {
	p := newPSC()
	va := arch.VAddr(0x7f00_1234_5000)
	p.Insert(arch.LevelPD, va, 0x4000)
	p.Insert(arch.LevelPDPT, va, 0x3000)
	// For a 2MB walk the PDE itself is the leaf; the PDE cache must not
	// be consulted, so the PDPTE cache supplies the PD base.
	level, base := p.LookupDeepest(va, arch.LevelPD, cr3)
	if level != arch.LevelPD || base != 0x3000 {
		t.Fatalf("2M walk start = %v, %#x; want PD, 0x3000", level, uint64(base))
	}
}

func TestPrefixGranularity(t *testing.T) {
	p := newPSC()
	va := arch.VAddr(0x40000000) // PDPT index 1
	p.Insert(arch.LevelPD, va, 0x4000)
	// Same 2MB region -> hit.
	if level, base := p.LookupDeepest(va+0x1FF000, arch.LevelPT, cr3); level != arch.LevelPT || base != 0x4000 {
		t.Errorf("same-2MB lookup = %v, %#x", level, uint64(base))
	}
	// Next 2MB region -> the PDE cache must miss.
	if level, _ := p.LookupDeepest(va+0x200000, arch.LevelPT, cr3); level == arch.LevelPT {
		t.Error("PDE cache hit leaked across 2MB boundary")
	}
}

func TestLRUEviction(t *testing.T) {
	p := New(arch.PSCGeometry{PML4Entries: 2, PDPTEntries: 2, PDEntries: 2})
	va := func(i uint64) arch.VAddr { return arch.VAddr(i << arch.PageShift2M) }
	p.Insert(arch.LevelPD, va(0), 0x1000)
	p.Insert(arch.LevelPD, va(1), 0x2000)
	p.LookupDeepest(va(0), arch.LevelPT, cr3) // refresh 0
	p.Insert(arch.LevelPD, va(2), 0x3000)     // evicts 1
	if level, _ := p.LookupDeepest(va(1), arch.LevelPT, cr3); level == arch.LevelPT {
		t.Error("LRU victim survived")
	}
	if level, _ := p.LookupDeepest(va(0), arch.LevelPT, cr3); level != arch.LevelPT {
		t.Error("refreshed entry evicted")
	}
}

func TestReinsertUpdates(t *testing.T) {
	p := newPSC()
	va := arch.VAddr(0)
	p.Insert(arch.LevelPD, va, 0x1000)
	p.Insert(arch.LevelPD, va, 0x2000)
	if p.Live(arch.LevelPD) != 1 {
		t.Errorf("reinsert duplicated: live=%d", p.Live(arch.LevelPD))
	}
	if _, base := p.LookupDeepest(va, arch.LevelPT, cr3); base != 0x2000 {
		t.Errorf("stale base %#x", uint64(base))
	}
}

func TestInvalidatePrefix(t *testing.T) {
	p := newPSC()
	va := arch.VAddr(0x200000)
	p.Insert(arch.LevelPD, va, 0x1000)
	p.InvalidatePrefix(arch.LevelPD, va)
	if level, _ := p.LookupDeepest(va, arch.LevelPT, cr3); level == arch.LevelPT {
		t.Error("entry survived invalidation")
	}

	// In a full cache, the invalidated entry's slot takes the next
	// insert: no live entry is evicted for it.
	p = newPSC()
	blk := func(i uint64) arch.VAddr { return arch.VAddr(i << arch.PageShift2M) }
	for i := uint64(0); i < 8; i++ {
		p.Insert(arch.LevelPD, blk(i), arch.PAddr(0x1000*(i+1)))
	}
	p.InvalidatePrefix(arch.LevelPD, blk(3))
	if p.Live(arch.LevelPD) != 7 {
		t.Errorf("live after invalidation = %d, want 7", p.Live(arch.LevelPD))
	}
	p.Insert(arch.LevelPD, blk(8), 0x9000)
	for i := uint64(0); i <= 8; i++ {
		if level, _ := p.LookupDeepest(blk(i), arch.LevelPT, cr3); (level == arch.LevelPT) != (i != 3) {
			t.Errorf("block %d: PDE-cache hit = %v, want %v", i, level == arch.LevelPT, i != 3)
		}
	}
}

func TestFlush(t *testing.T) {
	p := newPSC()
	p.Insert(arch.LevelPD, 0, 0x1000)
	p.Insert(arch.LevelPDPT, 0, 0x2000)
	p.Insert(arch.LevelPML4, 0, 0x3000)
	p.Flush()
	for l := arch.LevelPD; l <= arch.LevelPML4; l++ {
		if p.Live(l) != 0 {
			t.Errorf("level %v has %d live entries after flush", l, p.Live(l))
		}
	}
}

func TestCapacityBound(t *testing.T) {
	p := New(arch.PSCGeometry{PML4Entries: 2, PDPTEntries: 4, PDEntries: 8})
	for i := uint64(0); i < 100; i++ {
		p.Insert(arch.LevelPD, arch.VAddr(i<<arch.PageShift2M), arch.PAddr(i<<12))
	}
	if p.Live(arch.LevelPD) > 8 {
		t.Errorf("PDE cache overflow: %d live", p.Live(arch.LevelPD))
	}
}

func TestIgnoredLevels(t *testing.T) {
	p := newPSC()
	// Leaf-level inserts must be dropped silently.
	p.Insert(arch.LevelPT, 0x1000, 0x9000)
	p.InvalidatePrefix(arch.LevelPT, 0x1000)
}

func TestZeroSizedCachesNeverHit(t *testing.T) {
	p := New(arch.PSCGeometry{}) // all caches disabled
	va := arch.VAddr(0x200000)
	p.Insert(arch.LevelPD, va, 0x1000)
	p.Insert(arch.LevelPDPT, va, 0x2000)
	p.Insert(arch.LevelPML4, va, 0x3000)
	level, base := p.LookupDeepest(va, arch.LevelPT, cr3)
	if level != arch.LevelPML4 || base != cr3 {
		t.Errorf("disabled PSCs produced a hit: %v %#x", level, uint64(base))
	}
}

func TestFiveLevelPSC(t *testing.T) {
	p := NewWithDepth(arch.PSCGeometry{PML5Entries: 2, PML4Entries: 2, PDPTEntries: 2, PDEntries: 2}, 5)
	va := arch.VAddr(uint64(5) << 50)
	p.Insert(arch.LevelPML5, va, 0x9000)
	level, base := p.LookupDeepest(va, arch.LevelPT, cr3)
	if level != arch.LevelPML4 || base != 0x9000 {
		t.Errorf("PML5 cache miss: %v %#x", level, uint64(base))
	}
	// Cold 5-level lookup starts at PML5.
	level, base = p.LookupDeepest(arch.VAddr(1<<52), arch.LevelPT, cr3)
	if level != arch.LevelPML5 || base != cr3 {
		t.Errorf("cold 5-level start = %v %#x", level, uint64(base))
	}
}
