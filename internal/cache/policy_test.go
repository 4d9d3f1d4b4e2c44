package cache

import (
	"math/rand"
	"testing"

	"atscale/internal/arch"
)

func policyGeom(p arch.ReplacementPolicy) arch.CacheGeometry {
	return arch.CacheGeometry{SizeBytes: 4 * arch.KB, Ways: 4, Latency: 4, Replacement: p}
}

func TestPoliciesKeepCapacityBound(t *testing.T) {
	for _, p := range []arch.ReplacementPolicy{arch.ReplaceLRU, arch.ReplaceRandom, arch.ReplaceNRU} {
		c := New(policyGeom(p))
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 50000; i++ {
			c.Fill(rng.Uint64() % 4096)
		}
		live := 0
		for l := uint64(0); l < 4096; l++ {
			if c.Contains(l) {
				live++
			}
		}
		if live > 64 {
			t.Errorf("%s: %d live lines, capacity 64", p, live)
		}
	}
}

func TestPoliciesHitAfterFill(t *testing.T) {
	for _, p := range []arch.ReplacementPolicy{arch.ReplaceLRU, arch.ReplaceRandom, arch.ReplaceNRU} {
		c := New(policyGeom(p))
		c.Fill(123)
		if !c.Lookup(123) {
			t.Errorf("%s: freshly filled line missing", p)
		}
	}
}

func TestNRUPrefersUnreferenced(t *testing.T) {
	// 1KB, 4 ways -> 4 sets. Fill set 0, reference three lines, then
	// conflict: the unreferenced line must go.
	g := arch.CacheGeometry{SizeBytes: arch.KB, Ways: 4, Latency: 4, Replacement: arch.ReplaceNRU}
	c := New(g)
	for _, l := range []uint64{0, 4, 8, 12} {
		c.Fill(l)
	}
	// Fresh fills are referenced; clear by forcing a saturation round.
	c.Fill(16) // all referenced -> bulk clear, evict way 0 (line 0)
	if c.Contains(0) {
		t.Fatal("saturated NRU set did not evict way 0")
	}
	// Now lines 4, 8, 12 have cleared bits; 16 is referenced.
	c.Lookup(4)
	c.Lookup(8) // 12 left unreferenced
	c.Fill(20)
	if c.Contains(12) {
		t.Error("NRU evicted a referenced line over the unreferenced one")
	}
	for _, l := range []uint64{4, 8, 16, 20} {
		if !c.Contains(l) {
			t.Errorf("NRU wrongly evicted %d", l)
		}
	}
}

// TestLRUBeatsRandomOnLoopingPattern checks the policies actually differ:
// a working set slightly over capacity cycled repeatedly is LRU's worst
// case; random keeps a fraction resident.
func TestLRUBeatsRandomOnLoopingPattern(t *testing.T) {
	hits := func(p arch.ReplacementPolicy) int {
		c := New(arch.CacheGeometry{SizeBytes: arch.KB, Ways: 16, Latency: 4, Replacement: p})
		// One 16-way set is exercised: lines congruent mod 1.
		// Working set = 20 lines > 16 ways, cycled.
		n := 0
		for round := 0; round < 300; round++ {
			for l := uint64(0); l < 20; l++ {
				if c.Lookup(l) {
					n++
				} else {
					c.Fill(l)
				}
			}
		}
		return n
	}
	lru, random := hits(arch.ReplaceLRU), hits(arch.ReplaceRandom)
	if lru != 0 {
		t.Errorf("LRU hit %d times on a cyclic over-capacity loop (its pathological case)", lru)
	}
	if random < 500 {
		t.Errorf("random policy hit only %d times; should retain a fraction of the loop", random)
	}
}

// TestTagsKeepHighLinesApart: lines of one set that differ only above
// the set bits — quotients by the set count of q and q+1 around bit 31,
// and the largest tag arch.SystemConfig.Validate admits — stay distinct
// under every policy, at a fully associative, a power-of-two and Table
// III's L3 set count.
func TestTagsKeepHighLinesApart(t *testing.T) {
	const ways = 8
	for _, sets := range []uint64{1, 64, 24576} {
		for _, p := range []arch.ReplacementPolicy{arch.ReplaceLRU, arch.ReplaceRandom, arch.ReplaceNRU} {
			c := New(arch.CacheGeometry{SizeBytes: int(sets) * ways * arch.CacheLineSize, Ways: ways, Latency: 4, Replacement: p})
			set := sets - 1
			line := func(q uint64) uint64 { return q*sets + set }
			filled := []uint64{1<<31 - 1, 1 << 31, invalidTag - 1}
			for _, q := range filled {
				c.Fill(line(q))
			}
			for _, q := range filled {
				if !c.Contains(line(q)) || !c.Lookup(line(q)) {
					t.Errorf("%d sets, %s: line with quotient %#x missing", sets, p, q)
				}
			}
			for _, q := range []uint64{0, 1<<31 + 1, invalidTag - 2} {
				if c.Contains(line(q)) {
					t.Errorf("%d sets, %s: unfilled quotient %#x aliases a resident line", sets, p, q)
				}
			}
			c.Invalidate(line(invalidTag - 1))
			if c.Contains(line(invalidTag-1)) || !c.Contains(line(1<<31)) || !c.Contains(line(1<<31-1)) {
				t.Errorf("%d sets, %s: invalidating the top line disturbed the others", sets, p)
			}
		}
	}
}
