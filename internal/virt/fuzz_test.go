package virt_test

import (
	"math/rand"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/pagetable"
	"atscale/internal/virt"
	"atscale/internal/walker"
)

// FuzzNestedTranslationComposition drives the 2D hardware-walker model
// with randomized guest and EPT mapping mixes — 4KB/2MB/1GB leaves in
// either dimension — and asserts every gVA it resolves equals the
// composition of the two software oracles (guest page-table lookup, then
// EPT lookup), at the effective page size min(guest, EPT). Probes land
// on leaf boundaries of both dimensions as well as interior offsets, and
// unmapped probes must fault, not resolve.
func FuzzNestedTranslationComposition(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(2))
	f.Add(int64(3), uint8(2), uint8(1))
	f.Add(int64(4), uint8(0), uint8(5))
	f.Add(int64(5), uint8(1), uint8(7))

	f.Fuzz(func(t *testing.T, seed int64, eptChoice, mix uint8) {
		rng := rand.New(rand.NewSource(seed))
		eptPages := arch.PageSize(eptChoice % uint8(arch.NumPageSizes))

		host := mem.NewPhys(64 * arch.GB)
		hyp, err := virt.NewHypervisor(host, eptPages)
		if err != nil {
			t.Fatal(err)
		}
		gphys := virt.NewGuestPhys(hyp, 48*arch.GB)
		pt, err := pagetable.New(gphys)
		if err != nil {
			t.Fatal(err)
		}

		cfg := arch.DefaultSystem()
		vc := arch.DefaultVirt()
		vc.EPTPages = eptPages
		w := walker.NewNested(host, hyp.Root(), cfg.PSC, vc, cache.NewHierarchy(&cfg))

		// Map a randomized set of guest pages. The mix byte biases the
		// size distribution; 1GB guest pages are rare (they back a lot of
		// host memory) but must appear in some corpus entries.
		type mapping struct {
			va arch.VAddr
			ps arch.PageSize
		}
		var maps []mapping
		n := 4 + rng.Intn(10)
		oneGLeft := 1
		for i := 0; i < n; i++ {
			ps := arch.Page4K
			switch {
			case (int(mix)+i)%7 == 3 && oneGLeft > 0 && eptPages == arch.Page4K:
				ps = arch.Page1G
				oneGLeft--
			case (int(mix)+i)%3 == 1:
				ps = arch.Page2M
			}
			va := arch.VAddr(arch.AlignUp(
				0x0000_0100_0000_0000+uint64(rng.Int63n(1<<40)), ps.Bytes()))
			gframe, err := gphys.AllocPage(ps)
			if err != nil {
				t.Skip("guest-physical memory exhausted by this input")
			}
			if err := pt.Map(va, gframe, ps); err != nil {
				continue // overlap with an earlier mapping; skip it
			}
			maps = append(maps, mapping{va, ps})
		}
		if len(maps) == 0 {
			t.Skip("no mappings landed")
		}

		oracle := func(va arch.VAddr) (arch.PAddr, bool) {
			gpa, _, ok := pt.Lookup(va)
			if !ok {
				return 0, false
			}
			hpa, ok := hyp.Translate(gpa)
			if !ok {
				t.Fatalf("mapped VA %#x has EPT-unbacked gPA %#x", uint64(va), uint64(gpa))
			}
			return hpa, true
		}

		check := func(va arch.VAddr) {
			r := w.Walk(va, pt.Root(), walker.NoBudget)
			want, mapped := oracle(va)
			if !mapped {
				if r.OK {
					t.Fatalf("walker resolved unmapped VA %#x to %#x", uint64(va), uint64(r.Frame))
				}
				if !r.Completed {
					t.Fatalf("unbudgeted walk of %#x did not complete", uint64(va))
				}
				return
			}
			if !r.OK {
				t.Fatalf("walker failed on mapped VA %#x", uint64(va))
			}
			got := r.Frame + arch.PAddr(uint64(va)&r.Size.Mask())
			if got != want {
				t.Fatalf("VA %#x: walker hPA %#x != oracle %#x (size %s)", uint64(va), uint64(got), uint64(want), r.Size)
			}
			if r.Frame != arch.PAddr(arch.PageBase(arch.VAddr(got), r.Size))+0 {
				// Frame must be the effSize-aligned base of the composed
				// translation so TLB fills are coherent.
				if uint64(r.Frame)%r.Size.Bytes() != 0 {
					t.Fatalf("VA %#x: frame %#x not %s-aligned", uint64(va), uint64(r.Frame), r.Size)
				}
			}
		}

		for _, m := range maps {
			// Page base, interior offsets, and the EPT/guest leaf
			// boundaries inside (and one byte around) the mapping.
			check(m.va)
			check(m.va + arch.VAddr(rng.Int63n(int64(m.ps.Bytes()))&^7))
			if m.ps.Bytes() > eptPages.Bytes() {
				// Crossing an EPT-leaf boundary inside one guest page.
				check(m.va + arch.VAddr(eptPages.Bytes()))
				check(m.va + arch.VAddr(m.ps.Bytes()-8))
			}
			check(m.va + arch.VAddr(m.ps.Bytes())) // first byte past; often unmapped
		}
		// A handful of wild probes, mostly unmapped.
		for i := 0; i < 8; i++ {
			check(arch.VAddr(0x0000_0100_0000_0000 + uint64(rng.Int63n(1<<41))&^7))
		}
	})
}
