package mmucache_test

import (
	"testing"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/pagetable"
	"atscale/internal/virt"
	"atscale/internal/walker"
)

// These tests pin the flush-scoping contract of the two nested-paging
// cache dimensions as the nested walker drives them: a guest context
// switch (Nested.Flush) drops the guest-dimension PSCs only, while the
// EPT PSCs and the nTLB — keyed by guest-physical addresses under an
// unchanged EPTP — keep serving hits; Nested.Reset drops everything.

// nestedWalk builds a 4 KB guest over a 4 KB EPT with one guest page
// mapped at the returned address, walked by a nested walker built with
// vc's EPT-dimension caches.
func nestedWalk(t *testing.T, vc arch.VirtConfig) (*walker.Nested, arch.VAddr, arch.PAddr) {
	t.Helper()
	cfg := arch.DefaultSystem()
	host := mem.NewPhys(64 * arch.GB)
	t.Cleanup(host.Release)
	hyp, err := virt.NewHypervisor(host, arch.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	gphys := virt.NewGuestPhys(hyp, 32*arch.GB)
	pt, err := pagetable.New(gphys)
	if err != nil {
		t.Fatal(err)
	}
	va := arch.VAddr(0x7f00_1234_5000)
	gframe, err := gphys.AllocPage(arch.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(va, gframe, arch.Page4K); err != nil {
		t.Fatal(err)
	}
	vc.EPTPages = arch.Page4K
	w := walker.NewNested(host, hyp.Root(), cfg.PSC, vc, cache.NewHierarchy(&cfg))
	return w, va, pt.Root()
}

// walkOK walks va and fails the test unless the walk resolved.
func walkOK(t *testing.T, w *walker.Nested, va arch.VAddr, cr3 arch.PAddr) walker.Result {
	t.Helper()
	r := w.Walk(va, cr3, walker.NoBudget)
	if !r.OK || !r.Completed {
		t.Fatalf("walk failed: %+v", r)
	}
	return r
}

func TestFlushGuestScopesToGuestDimension(t *testing.T) {
	// No nTLB: every guest-physical access is an EPT walk, so the EPT
	// PSCs' warmth shows in the EPT load count.
	vc := arch.DefaultVirt()
	vc.NTLBEntries = 0
	w, va, cr3 := nestedWalk(t, vc)

	// The cold walk's first EPT walk loads all four EPT levels; the
	// table pages' later EPT walks may already hit its PSC entries.
	cold := walkOK(t, w, va, cr3)
	if cold.GuestLoads != 4 || cold.EPTWalks != 5 || cold.EPTLoads < cold.EPTWalks+3 {
		t.Fatalf("cold walk: guest/EPT loads %d/%d over %d EPT walks, want 4/>=8 over 5",
			cold.GuestLoads, cold.EPTLoads, cold.EPTWalks)
	}
	if warm := walkOK(t, w, va, cr3); !warm.GuestPSCHit {
		t.Fatal("warm walk missed the guest PSCs")
	}

	w.Flush()
	r := walkOK(t, w, va, cr3)
	if r.GuestPSCHit || r.GuestLoads != 4 {
		t.Errorf("post-flush guest loads = %d (PSC hit %v), want 4 from a cold guest PSC",
			r.GuestLoads, r.GuestPSCHit)
	}
	// Each of the five EPT walks enters at its leaf through a PDE-cache
	// hit: one load apiece.
	if r.EPTWalks != 5 || r.EPTLoads != r.EPTWalks {
		t.Errorf("post-flush EPT loads = %d over %d walks, want one leaf load per walk from warm EPT PSCs",
			r.EPTLoads, r.EPTWalks)
	}
	if r.NTLBHits != 0 {
		t.Errorf("disabled nTLB served %d hits", r.NTLBHits)
	}
}

func TestNestedFlushScopes(t *testing.T) {
	w, va, cr3 := nestedWalk(t, arch.DefaultVirt())
	cold := walkOK(t, w, va, cr3)
	if cold.NTLBMisses != 5 || cold.NTLBHits != 0 {
		t.Fatalf("cold walk nTLB hits/misses = %d/%d, want 0/5", cold.NTLBHits, cold.NTLBMisses)
	}

	// Guest context switch: the guest table is re-walked from the root,
	// but every table page and the data page still translate in the nTLB.
	w.Flush()
	r := walkOK(t, w, va, cr3)
	if r.GuestPSCHit || r.GuestLoads != 4 {
		t.Errorf("post-flush guest loads = %d (PSC hit %v), want 4", r.GuestLoads, r.GuestPSCHit)
	}
	if r.NTLBHits != 5 || r.NTLBMisses != 0 || r.EPTLoads != 0 {
		t.Errorf("post-flush nTLB hits/misses = %d/%d with %d EPT loads, want 5/0 with 0",
			r.NTLBHits, r.NTLBMisses, r.EPTLoads)
	}

	// Reset drops both dimensions: the walk is as cold as the first.
	w.Reset()
	r = walkOK(t, w, va, cr3)
	if r.GuestPSCHit || r.NTLBHits != 0 || r.Loads != cold.Loads || r.EPTLoads != cold.EPTLoads {
		t.Errorf("post-reset walk: loads %d (EPT %d), nTLB hits %d, guest PSC hit %v; want the cold walk's %d (EPT %d), 0, false",
			r.Loads, r.EPTLoads, r.NTLBHits, r.GuestPSCHit, cold.Loads, cold.EPTLoads)
	}
}
