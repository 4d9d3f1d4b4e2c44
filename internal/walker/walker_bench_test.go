package walker

import (
	"testing"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/mmucache"
	"atscale/internal/pagetable"
)

func benchSetup(b *testing.B, pages uint64) (*Walker, *pagetable.Table) {
	b.Helper()
	cfg := arch.DefaultSystem()
	phys := mem.NewPhys(64 * arch.GB)
	pt, err := pagetable.New(phys)
	if err != nil {
		b.Fatal(err)
	}
	for p := uint64(0); p < pages; p++ {
		frame, err := phys.AllocPage(arch.Page4K)
		if err != nil {
			b.Fatal(err)
		}
		if err := pt.Map(arch.VAddr(p<<12), frame, arch.Page4K); err != nil {
			b.Fatal(err)
		}
	}
	return New(phys, mmucache.New(cfg.PSC), cache.NewHierarchy(&cfg)), pt
}

func BenchmarkWalkWarm(b *testing.B) {
	w, pt := benchSetup(b, 1)
	w.Walk(0, pt.Root(), NoBudget)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !w.Walk(0, pt.Root(), NoBudget).OK {
			b.Fatal("walk failed")
		}
	}
}

func BenchmarkWalkSpread(b *testing.B) {
	const pages = 1 << 16 // 256MB of mappings: PSC and caches thrash
	w, pt := benchSetup(b, pages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := arch.VAddr(uint64(i) * 0x9E3779B9 % pages << 12)
		if !w.Walk(va, pt.Root(), NoBudget).OK {
			b.Fatal("walk failed")
		}
	}
}

// BenchmarkNestedWalkSpread is BenchmarkWalkSpread under nested paging
// (4 KB guest pages over a 4 KB EPT, default walk caches): the guest
// PSCs, EPT PSCs and nTLB thrash, so most walks take EPT walks.
func BenchmarkNestedWalkSpread(b *testing.B) {
	const pages = 1 << 16
	f := newNestedFixture(b, arch.Page4K, false)
	for p := uint64(0); p < pages; p++ {
		f.mapGuestPage(b, arch.VAddr(p<<12), arch.Page4K)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := arch.VAddr(uint64(i) * 0x9E3779B9 % pages << 12)
		if !f.w.Walk(va, f.pt.Root(), NoBudget).OK {
			b.Fatal("walk failed")
		}
	}
}
