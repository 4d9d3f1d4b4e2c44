package cpu

import (
	"math/rand"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/tlb"
)

// TestResetReseedsInPlace: Reset reseeds the core's existing generator
// into exactly the state a new rand.NewSource(seed) starts in, without
// allocating.
func TestResetReseedsInPlace(t *testing.T) {
	cfg := arch.DefaultSystem()
	c := New(&cfg, tlb.NewHierarchy(&cfg), cache.NewHierarchy(&cfg), nil, 1)
	c.rng.Int63()
	c.Reset(42)
	want := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		if got, w := c.rng.Int63(), want.Int63(); got != w {
			t.Fatalf("draw %d after Reset = %d, fresh source gives %d", i, got, w)
		}
	}
	if n := testing.AllocsPerRun(10, func() { c.Reset(7) }); n != 0 {
		t.Errorf("Core.Reset allocates %v times per call", n)
	}
}
