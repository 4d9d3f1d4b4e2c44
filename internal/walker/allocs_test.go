package walker

import (
	"math/rand"
	"testing"

	"atscale/internal/arch"
)

// TestWalkZeroAllocs pins the walkers' allocation contract: resolving a
// walk — PSC probe, path resolution, batched PTE charging, completed or
// budget-aborted, natively or nested in either dimension — allocates
// nothing. The per-walk scratch (paths, the EPT dimension's result) must
// stay on the stack.
func TestWalkZeroAllocs(t *testing.T) {
	const pages = 512
	base := arch.VAddr(0x7f00_0000_0000)
	zeroAllocs := func(t *testing.T, walk func(va arch.VAddr)) {
		t.Helper()
		rng := rand.New(rand.NewSource(1))
		step := func() { walk(base + arch.VAddr(rng.Intn(pages)*4096)) }
		for i := 0; i < 100; i++ {
			step()
		}
		if avg := testing.AllocsPerRun(200, step); avg != 0 {
			t.Errorf("Walk allocates %.2f allocs/op, want 0", avg)
		}
	}

	t.Run("native", func(t *testing.T) {
		f := newFixture(t)
		for i := 0; i < pages; i++ {
			f.mapPage(t, base+arch.VAddr(i*4096), arch.Page4K)
		}
		zeroAllocs(t, func(va arch.VAddr) {
			f.w.Walk(va, f.pt.Root(), NoBudget)
			f.w.Walk(va, f.pt.Root(), 5) // budget-abort path
		})
	})

	// Nested walks over a warm nTLB find the table pages' translations
	// cached, so a 1-cycle budget aborts on the first guest load; with
	// every walk cache disabled it aborts inside the first EPT walk.
	warm := newNestedFixture(t, arch.Page4K, false)
	cold := newNestedFixture(t, arch.Page4K, true)
	for _, f := range []*nestedFixture{warm, cold} {
		for i := 0; i < pages; i++ {
			f.mapGuestPage(t, base+arch.VAddr(i*4096), arch.Page4K)
		}
		f.w.Walk(base, f.pt.Root(), NoBudget)
	}
	for _, c := range []struct {
		name   string
		f      *nestedFixture
		budget uint64
		check  func(r Result) bool
	}{
		{"nested/completed", warm, NoBudget, func(r Result) bool { return r.OK }},
		{"nested/guest-abort", warm, 1, func(r Result) bool { return !r.Completed && r.GuestLoads == 1 && r.EPTLoads == 0 }},
		{"nested/ept-abort", cold, 1, func(r Result) bool { return !r.Completed && r.GuestLoads == 0 && r.EPTLoads == 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if r := c.f.w.Walk(base, c.f.pt.Root(), c.budget); !c.check(r) {
				t.Fatalf("walk took the wrong path: %+v", r)
			}
			zeroAllocs(t, func(va arch.VAddr) { c.f.w.Walk(va, c.f.pt.Root(), c.budget) })
		})
	}
}
