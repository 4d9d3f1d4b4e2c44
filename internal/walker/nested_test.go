package walker

import (
	"math/rand"
	"reflect"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/mmucache"
	"atscale/internal/pagetable"
	"atscale/internal/virt"
)

type nestedFixture struct {
	host  *mem.Phys
	hyp   *virt.Hypervisor
	gphys *virt.GuestPhys
	pt    *pagetable.Table // guest table, pages in guest-physical memory
	w     *Nested
}

// newNestedFixture builds the full virtualization stack. With uncached
// true, every walk-serving cache has zero entries, so each walk performs
// the full analytic load count.
func newNestedFixture(t testing.TB, eptPages arch.PageSize, uncached bool) *nestedFixture {
	t.Helper()
	cfg := arch.DefaultSystem()
	guestPSC, vc := cfg.PSC, arch.DefaultVirt()
	if uncached {
		guestPSC, vc = arch.PSCGeometry{}, arch.VirtConfig{}
	}
	vc.EPTPages = eptPages
	f := newNestedStack(t, eptPages, 32*arch.GB)
	f.w = NewNested(f.host, f.hyp.Root(), guestPSC, vc, cache.NewHierarchy(&cfg))
	return f
}

// newNestedStack builds host memory, a hypervisor whose EPT maps with
// eptPages leaves, guest-physical memory of guestBytes and an empty guest
// page table; the walker is left to the caller.
func newNestedStack(t testing.TB, eptPages arch.PageSize, guestBytes uint64) *nestedFixture {
	t.Helper()
	host := mem.NewPhys(64 * arch.GB)
	t.Cleanup(host.Release)
	hyp, err := virt.NewHypervisor(host, eptPages)
	if err != nil {
		t.Fatal(err)
	}
	gphys := virt.NewGuestPhys(hyp, guestBytes)
	pt, err := pagetable.New(gphys)
	if err != nil {
		t.Fatal(err)
	}
	return &nestedFixture{host: host, hyp: hyp, gphys: gphys, pt: pt}
}

func (f *nestedFixture) mapGuestPage(t testing.TB, va arch.VAddr, ps arch.PageSize) arch.PAddr {
	t.Helper()
	gframe, err := f.gphys.AllocPage(ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.pt.Map(va, gframe, ps); err != nil {
		t.Fatal(err)
	}
	return gframe
}

// oracle composes the two software lookups: guest table then EPT.
func (f *nestedFixture) oracle(t *testing.T, va arch.VAddr) arch.PAddr {
	t.Helper()
	gpa, _, ok := f.pt.Lookup(va)
	if !ok {
		t.Fatalf("oracle: %#x unmapped in guest", uint64(va))
	}
	hpa, ok := f.hyp.Translate(gpa)
	if !ok {
		t.Fatalf("oracle: gPA %#x unmapped in EPT", uint64(gpa))
	}
	return hpa
}

// TestNestedColdWalkLoadCounts pins the analytic 2D load counts: an
// uncached n_g-level guest walk over an n_e-level EPT performs
// n_g + (n_g+1)*n_e PTE loads — 24 in the 4KB/4KB worst case.
func TestNestedColdWalkLoadCounts(t *testing.T) {
	cases := []struct {
		guest, ept arch.PageSize
	}{
		{arch.Page4K, arch.Page4K}, // 4 + 5*4 = 24
		{arch.Page4K, arch.Page2M}, // 4 + 5*3 = 19
		{arch.Page4K, arch.Page1G}, // 4 + 5*2 = 14
		{arch.Page2M, arch.Page4K}, // 3 + 4*4 = 19
		{arch.Page2M, arch.Page2M}, // 3 + 4*3 = 15
		{arch.Page1G, arch.Page4K}, // 2 + 3*4 = 14
	}
	for _, tc := range cases {
		t.Run(tc.guest.String()+"/"+tc.ept.String(), func(t *testing.T) {
			f := newNestedFixture(t, tc.ept, true)
			va := arch.VAddr(arch.AlignUp(0x7f00_0000_0000, tc.guest.Bytes()))
			f.mapGuestPage(t, va, tc.guest)
			r := f.w.Walk(va, f.pt.Root(), NoBudget)
			if !r.OK || !r.Completed {
				t.Fatalf("walk failed: %+v", r)
			}
			gl := tc.guest.WalkLength()
			el := tc.ept.WalkLength()
			want := gl + (gl+1)*el
			if r.Loads != want {
				t.Errorf("total loads = %d, want %d", r.Loads, want)
			}
			if r.GuestLoads != gl {
				t.Errorf("guest loads = %d, want %d", r.GuestLoads, gl)
			}
			if r.EPTLoads != (gl+1)*el {
				t.Errorf("EPT loads = %d, want %d", r.EPTLoads, (gl+1)*el)
			}
			if r.EPTWalks != gl+1 {
				t.Errorf("EPT walks = %d, want %d", r.EPTWalks, gl+1)
			}
			if r.NTLBMisses != gl+1 || r.NTLBHits != 0 {
				t.Errorf("nTLB hits/misses = %d/%d, want 0/%d", r.NTLBHits, r.NTLBMisses, gl+1)
			}
			if got := f.oracle(t, va); r.Frame+arch.PAddr(uint64(va)&r.Size.Mask()) != got {
				t.Errorf("hPA = %#x, oracle %#x", uint64(r.Frame), uint64(got))
			}
		})
	}
}

// TestNestedEffectivePageSize checks the nested TLB-entry granularity is
// the smaller of the two dimensions' mapping sizes.
func TestNestedEffectivePageSize(t *testing.T) {
	// 2MB guest page over a 4KB EPT: gVA->hPA is linear over 4KB only.
	f := newNestedFixture(t, arch.Page4K, false)
	va := arch.VAddr(arch.AlignUp(0x7f00_0000_0000, arch.Page2M.Bytes()))
	f.mapGuestPage(t, va, arch.Page2M)
	r := f.w.Walk(va+0x1000, f.pt.Root(), NoBudget)
	if !r.OK {
		t.Fatalf("walk failed: %+v", r)
	}
	if r.Size != arch.Page4K {
		t.Errorf("effective size = %s, want 4KB", r.Size)
	}
	if want := f.oracle(t, va+0x1000); r.Frame+arch.PAddr(uint64(va+0x1000)&r.Size.Mask()) != want {
		t.Errorf("hPA mismatch")
	}

	// 4KB guest page over a 1GB EPT: still a 4KB translation.
	f2 := newNestedFixture(t, arch.Page1G, false)
	va2 := arch.VAddr(0x5000_0000_0000)
	f2.mapGuestPage(t, va2, arch.Page4K)
	r2 := f2.w.Walk(va2, f2.pt.Root(), NoBudget)
	if !r2.OK || r2.Size != arch.Page4K {
		t.Fatalf("walk = %+v, want OK 4KB", r2)
	}
}

// TestNestedWarmCachesShortenWalks checks the nTLB and both PSC
// dimensions engage: a second walk of a neighbouring page reuses the
// guest PDE entry and the table pages' EPT translations.
func TestNestedWarmCachesShortenWalks(t *testing.T) {
	f := newNestedFixture(t, arch.Page4K, false)
	va1 := arch.VAddr(0x7f00_0000_0000)
	va2 := va1 + 0x1000 // same guest PT page
	f.mapGuestPage(t, va1, arch.Page4K)
	f.mapGuestPage(t, va2, arch.Page4K)

	r1 := f.w.Walk(va1, f.pt.Root(), NoBudget)
	if r1.GuestLoads != 4 || r1.GuestPSCHit {
		t.Fatalf("cold walk: %+v", r1)
	}
	r2 := f.w.Walk(va2, f.pt.Root(), NoBudget)
	if !r2.OK {
		t.Fatalf("warm walk failed: %+v", r2)
	}
	if !r2.GuestPSCHit || r2.GuestLoads != 1 {
		t.Errorf("warm walk guest loads = %d (PSC hit %v), want 1 via PDE cache", r2.GuestLoads, r2.GuestPSCHit)
	}
	// The guest PT page's gPA was nTLB-filled by walk 1; only the new
	// data page's gPA needs an EPT walk.
	if r2.NTLBHits < 1 {
		t.Errorf("warm walk nTLB hits = %d, want >= 1", r2.NTLBHits)
	}
	if r2.Loads >= r1.Loads {
		t.Errorf("warm walk loads = %d, not below cold %d", r2.Loads, r1.Loads)
	}
	if r2.EPTCycles >= r2.Cycles {
		t.Errorf("EPTCycles %d must be a strict subset of Cycles %d (guest dimension loaded too)", r2.EPTCycles, r2.Cycles)
	}
}

// TestNestedFlushKeepsEPTDimension checks Flush (guest context switch)
// drops guest PSCs but keeps the nTLB warm.
func TestNestedFlushKeepsEPTDimension(t *testing.T) {
	f := newNestedFixture(t, arch.Page4K, false)
	va := arch.VAddr(0x7f00_0000_0000)
	f.mapGuestPage(t, va, arch.Page4K)
	f.w.Walk(va, f.pt.Root(), NoBudget)
	if f.w.ntlb.Live() == 0 {
		t.Fatal("walk did not fill the nTLB")
	}

	f.w.Flush()
	if f.w.ntlb.Live() == 0 {
		t.Error("guest-context-switch Flush emptied the nTLB")
	}
	if f.w.guest.psc.Live(arch.LevelPD) != 0 {
		t.Error("Flush kept guest PSC entries")
	}
	r := f.w.Walk(va, f.pt.Root(), NoBudget)
	if r.GuestLoads != 4 {
		t.Errorf("post-switch guest loads = %d, want 4 (guest PSCs cold)", r.GuestLoads)
	}
	if r.NTLBHits == 0 {
		t.Errorf("post-switch walk got no nTLB hits; EPT dimension should stay warm")
	}
}

// TestNestedPageFaultAndAbort covers the non-OK exits: a guest
// not-present leaf is a completed fault; a tiny budget aborts mid-walk.
func TestNestedPageFaultAndAbort(t *testing.T) {
	f := newNestedFixture(t, arch.Page4K, false)
	va := arch.VAddr(0x7f00_0000_0000)
	f.mapGuestPage(t, va, arch.Page4K)

	miss := f.w.Walk(va+0x1000, f.pt.Root(), NoBudget)
	if miss.OK || !miss.Completed {
		t.Errorf("unmapped neighbour: got %+v, want completed fault", miss)
	}

	aborted := f.w.Walk(va, f.pt.Root(), 1)
	if aborted.OK || aborted.Completed {
		t.Errorf("budget-1 walk: got %+v, want aborted", aborted)
	}
	if aborted.Loads == 0 || aborted.Cycles == 0 {
		t.Errorf("aborted walk accrued no work: %+v", aborted)
	}
}

// refNested is the reference model of the nested walker: the guest and
// EPT loops the walker ran before both dimensions moved onto the radix
// kernel, over caches of its own. FuzzNestedMatchesReference holds
// Nested to it walk by walk.
type refNested struct {
	phys       *mem.Phys
	eptRoot    arch.PAddr
	eptLeaf    arch.Level
	guest, ept *mmucache.PSC
	ntlb       mmucache.NTLB
	caches     *cache.Hierarchy
}

func newRefNested(phys *mem.Phys, eptRoot arch.PAddr, guestPSC arch.PSCGeometry, vc arch.VirtConfig, caches *cache.Hierarchy) *refNested {
	return &refNested{
		phys:    phys,
		eptRoot: eptRoot,
		eptLeaf: vc.EPTPages.LeafLevel(),
		guest:   mmucache.New(guestPSC),
		ept:     mmucache.New(vc.EPTPSC),
		ntlb:    mmucache.NewNTLB(vc.NTLBEntries, vc.EPTPages),
		caches:  caches,
	}
}

// eptTranslate resolves a guest-physical address to its backing host
// frame: nTLB first, then an EPT walk whose entry loads go through the
// cache hierarchy and whose skips come from the EPT PSCs.
func (w *refNested) eptTranslate(gpa arch.PAddr, r *Result, budget uint64) (arch.PAddr, arch.PageSize, eptStatus) {
	if hbase, size, ok := w.ntlb.Lookup(gpa); ok {
		r.NTLBHits++
		return hbase, size, eptOK
	}
	r.NTLBMisses++
	gva := arch.VAddr(gpa)
	level, base := w.ept.LookupDeepest(gva, w.eptLeaf, w.eptRoot)
	for {
		a := pagetable.EntryAddr(base, level, gva)
		lat, loc := w.caches.Access(a)
		r.Cycles += lat + stepOverhead
		r.EPTCycles += lat + stepOverhead
		r.Loads++
		r.EPTLoads++
		r.EPTLocs[loc]++
		if r.Cycles > budget {
			return 0, 0, eptAborted
		}
		e := pagetable.PTE(w.phys.Read64(a))
		if !e.Present() {
			return 0, 0, eptViolation
		}
		if e.IsLeaf(level) {
			size := sizeAtLevel(level)
			w.ntlb.Insert(arch.PAddr(arch.PageBase(gva, size)), e.Frame())
			r.EPTWalks++
			return e.Frame(), size, eptOK
		}
		w.ept.Insert(level, gva, e.Frame())
		base = e.Frame()
		level--
	}
}

// walk is the full gVA -> hPA nested walk; cr3 is guest-physical.
func (w *refNested) walk(va arch.VAddr, cr3 arch.PAddr, budget uint64) Result {
	var r Result
	level, base := w.guest.LookupDeepest(va, arch.LevelPT, cr3)
	r.GuestPSCHit = level != w.guest.Top()
	for {
		entryGPA := pagetable.EntryAddr(base, level, va)
		hbase, esize, st := w.eptTranslate(entryGPA, &r, budget)
		if st != eptOK {
			r.Completed = st == eptViolation
			return r
		}
		hpa := hbase + arch.PAddr(uint64(entryGPA)&esize.Mask())
		lat, loc := w.caches.Access(hpa)
		r.Cycles += lat + stepOverhead
		r.Loads++
		r.GuestLoads++
		r.Locs[loc]++
		r.LeafLoc = loc
		if r.Cycles > budget {
			return r
		}
		e := pagetable.PTE(w.phys.Read64(hpa))
		if !e.Present() {
			r.Completed = true
			return r
		}
		if e.IsLeaf(level) {
			gsize := sizeAtLevel(level)
			gframe := e.Frame()
			dataGPA := gframe + arch.PAddr(uint64(va)&gsize.Mask())
			dbase, dsize, st := w.eptTranslate(dataGPA, &r, budget)
			if st != eptOK {
				r.Completed = st == eptViolation
				return r
			}
			eff := gsize
			if dsize < eff {
				eff = dsize
			}
			effBase := arch.PageBase(va, eff)
			gpaBase := gframe + arch.PAddr(uint64(effBase)-uint64(arch.PageBase(va, gsize)))
			r.Frame = dbase + arch.PAddr(uint64(gpaBase)&dsize.Mask())
			r.Size = eff
			r.OK = true
			r.Completed = true
			return r
		}
		w.guest.Insert(level, va, e.Frame())
		base = e.Frame()
		level--
	}
}

// smallCaches is a data-cache geometry small enough that PTE loads
// spread over every hit level and whole-hierarchy comparisons stay cheap.
func smallCaches() *arch.SystemConfig {
	cfg := arch.DefaultSystem()
	cfg.L1D = arch.CacheGeometry{SizeBytes: 4 * arch.KB, Ways: 4, Latency: cfg.L1D.Latency}
	cfg.L2 = arch.CacheGeometry{SizeBytes: 16 * arch.KB, Ways: 4, Latency: cfg.L2.Latency}
	cfg.L3 = arch.CacheGeometry{SizeBytes: 64 * arch.KB, Ways: 8, Latency: cfg.L3.Latency}
	return &cfg
}

// checkNTLBDisjoint fails the test unless every nTLB key is the base of
// one page of the EPT leaf size and no two keys cover the same
// guest-physical page: the nTLB looks an address up by its page base at
// that size, which must be the only entry covering it.
func checkNTLBDisjoint(t *testing.T, n *mmucache.NTLB, eptPages arch.PageSize) {
	t.Helper()
	seen := map[arch.PAddr]bool{}
	for _, gbase := range n.Keys() {
		if uint64(gbase)&eptPages.Mask() != 0 {
			t.Fatalf("nTLB key %#x is not a %v-aligned page base", uint64(gbase), eptPages)
		}
		if seen[gbase] {
			t.Fatalf("two nTLB entries cover gPA %#x", uint64(gbase))
		}
		seen[gbase] = true
	}
}

// FuzzNestedMatchesReference runs Nested and the reference model side by
// side over one guest table and EPT: guest leaves of every size over EPT
// leaves of every size, guest pages backed outside the EPT (violations),
// PSC and nTLB geometries down to disabled, budgets from none to small
// enough to abort in either dimension, and guest flushes, block
// invalidations and resets between walks. After every walk the Results
// and the data-cache, PSC and nTLB states must be equal, and no two nTLB
// entries may overlap.
func FuzzNestedMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Add(int64(3), uint8(2))
	f.Add(int64(4), uint8(4))
	f.Add(int64(5), uint8(5))

	f.Fuzz(func(t *testing.T, seed int64, eptChoice uint8) {
		rng := rand.New(rand.NewSource(seed))
		eptPages := arch.PageSize(eptChoice % uint8(arch.NumPageSizes))
		fx := newNestedStack(t, eptPages, 48*arch.GB)

		entries := func() int { return []int{0, 1, 2, 4, 8, 32}[rng.Intn(6)] }
		psc := func() arch.PSCGeometry {
			return arch.PSCGeometry{PML4Entries: entries(), PDPTEntries: entries(), PDEntries: entries()}
		}
		guestPSC := psc()
		vc := arch.VirtConfig{EPTPages: eptPages, EPTPSC: psc(), NTLBEntries: entries()}
		cfg := smallCaches()
		w := NewNested(fx.host, fx.hyp.Root(), guestPSC, vc, cache.NewHierarchy(cfg))
		ref := newRefNested(fx.host, fx.hyp.Root(), guestPSC, vc, cache.NewHierarchy(cfg))

		var vas []arch.VAddr
		oneGLeft := 1
		for i, n := 0, 4+rng.Intn(12); i < n; i++ {
			ps := arch.Page4K
			switch r := rng.Intn(8); {
			case r == 0 && oneGLeft > 0 && eptPages == arch.Page4K:
				ps = arch.Page1G
				oneGLeft--
			case r < 4:
				ps = arch.Page2M
			}
			va := arch.VAddr(arch.AlignUp(0x0000_0100_0000_0000+uint64(rng.Int63n(1<<38)), ps.Bytes()))
			gframe, err := fx.gphys.AllocPage(ps)
			if err != nil {
				t.Skip("guest-physical memory exhausted by this input")
			}
			if rng.Intn(8) == 0 {
				// A guest frame beyond guest memory: the EPT never
				// backed it, so the data crossing is a violation.
				gframe = arch.PAddr(arch.AlignUp(60*arch.GB+uint64(rng.Int63n(arch.GB)), ps.Bytes()))
			}
			if err := fx.pt.Map(va, gframe, ps); err != nil {
				continue // overlaps an earlier mapping
			}
			vas = append(vas, va, va+arch.VAddr(rng.Int63n(int64(ps.Bytes()))&^7), va+arch.VAddr(ps.Bytes()))
		}

		for i := 0; i < 200; i++ {
			switch rng.Intn(16) {
			case 0:
				w.Flush()
				ref.guest.Flush()
			case 1:
				va := vas[rng.Intn(len(vas))]
				w.InvalidateBlock(va)
				ref.guest.InvalidatePrefix(arch.LevelPD, va)
			case 2:
				w.Reset()
				ref.guest.Reset()
				ref.ept.Reset()
				ref.ntlb.Reset()
			}
			budget := uint64(NoBudget)
			if rng.Intn(2) == 0 {
				budget = uint64(rng.Intn(1500))
			}
			va := vas[rng.Intn(len(vas))]
			got := w.Walk(va, fx.pt.Root(), budget)
			want := ref.walk(va, fx.pt.Root(), budget)
			if got != want {
				t.Fatalf("walk %d of %#x (budget %d):\n got  %+v\n want %+v", i, uint64(va), budget, got, want)
			}
			checkNTLBDisjoint(t, &w.ntlb, eptPages)
			for _, s := range []struct {
				name      string
				got, want any
			}{
				{"data caches", w.guest.caches, ref.caches},
				{"guest PSCs", w.guest.psc, ref.guest},
				{"EPT PSCs", w.ept.psc, ref.ept},
				{"nTLB", w.ntlb, ref.ntlb},
			} {
				if !reflect.DeepEqual(s.got, s.want) {
					t.Fatalf("walk %d of %#x (budget %d): %s diverge from the reference", i, uint64(va), budget, s.name)
				}
			}
		}
	})
}
