package cache

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"atscale/internal/arch"
)

// refCache is the stamp-based cache the recency-ordered Cache replaced,
// kept as its reference model: every way carries the full line address
// and the clock value of its last reference (or an NRU reference bit), a
// fill takes the set's first invalid way or else the policy's victim,
// and LRU evicts the way with the oldest stamp.
type refCache struct {
	sets, ways uint64
	kind       replKind
	tags       []uint64
	stamp      []uint64
	clock      uint64
	rng        uint64
}

// refInvalid marks the reference's empty ways; no drawn line reaches it.
const refInvalid = math.MaxUint64

func newRefCache(g arch.CacheGeometry) *refCache {
	c := New(g)
	r := &refCache{sets: c.sets, ways: c.ways, kind: c.kind}
	r.tags = make([]uint64, len(c.tags))
	r.stamp = make([]uint64, len(c.tags))
	r.reset()
	return r
}

func (c *refCache) reset() {
	for i := range c.tags {
		c.tags[i] = refInvalid
	}
	clear(c.stamp)
	c.clock = 0
	c.rng = rngSeed
}

func (c *refCache) base(line uint64) uint64 { return (line % c.sets) * c.ways }

func (c *refCache) touch(i uint64) {
	s := c.clock
	if c.kind == replNRU {
		s = 1
	}
	c.stamp[i] = s
}

func (c *refCache) lookup(line uint64) bool {
	base := c.base(line)
	c.clock++
	for w := uint64(0); w < c.ways; w++ {
		if c.tags[base+w] == line {
			c.touch(base + w)
			return true
		}
	}
	return false
}

func (c *refCache) victim(base uint64) uint64 {
	switch c.kind {
	case replRandom:
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		return base + c.rng%c.ways
	case replNRU:
		for w := uint64(0); w < c.ways; w++ {
			if c.stamp[base+w] == 0 {
				return base + w
			}
		}
		for w := uint64(0); w < c.ways; w++ {
			c.stamp[base+w] = 0
		}
		return base
	default:
		victim, oldest := uint64(0), uint64(math.MaxUint64)
		for w := uint64(0); w < c.ways; w++ {
			if s := c.stamp[base+w]; s < oldest {
				victim, oldest = w, s
			}
		}
		return base + victim
	}
}

func (c *refCache) fill(line uint64) {
	base := c.base(line)
	c.clock++
	empty := -1
	for w := uint64(0); w < c.ways; w++ {
		if c.tags[base+w] == line {
			c.touch(base + w)
			return
		}
		if c.tags[base+w] == refInvalid && empty < 0 {
			empty = int(w)
		}
	}
	i := base + uint64(empty)
	if empty < 0 {
		i = c.victim(base)
	}
	c.tags[i] = line
	c.touch(i)
}

func (c *refCache) invalidate(line uint64) {
	base := c.base(line)
	for w := uint64(0); w < c.ways; w++ {
		if c.tags[base+w] == line {
			c.tags[base+w] = refInvalid
			c.stamp[base+w] = 0
			return
		}
	}
}

// recencyOrder returns the reference set at base's lines, newest stamp
// first, then its invalid ways.
func (c *refCache) recencyOrder(base uint64) []uint64 {
	var ways []uint64
	for w := base; w < base+c.ways; w++ {
		if c.tags[w] != refInvalid {
			ways = append(ways, w)
		}
	}
	slices.SortFunc(ways, func(a, b uint64) int { return cmp.Compare(c.stamp[b], c.stamp[a]) })
	lines := make([]uint64, c.ways)
	for i := range lines {
		lines[i] = refInvalid
	}
	for i, w := range ways {
		lines[i] = c.tags[w]
	}
	return lines
}

// lines returns the line addresses of the set at base, each way's tag
// times the set count plus the set, and refInvalid for an empty way.
func (c *Cache) lines(base uint64) []uint64 {
	lines := make([]uint64, c.ways)
	for w, tag := range c.tags[base : base+c.ways] {
		lines[w] = refInvalid
		if tag != invalidTag {
			lines[w] = uint64(tag)*c.sets + base/c.ways
		}
	}
	return lines
}

// sameState reports where c and the reference disagree, or "" when every
// LRU set holds the reference's lines in recency order and every random
// or NRU set holds them way for way (NRU with the same reference bits).
func (c *Cache) sameState(ref *refCache) string {
	if c.rng != ref.rng {
		return "random state differs"
	}
	for base := uint64(0); base < uint64(len(c.tags)); base += c.ways {
		got, want := c.lines(base), ref.tags[base:base+c.ways]
		if c.kind == replLRU {
			want = ref.recencyOrder(base)
		}
		if !slices.Equal(got, want) {
			return fmt.Sprintf("set at way %d holds %x, reference %x", base, got, want)
		}
		if c.kind == replNRU && !slices.Equal(c.stamp[base:base+c.ways], ref.stamp[base:base+c.ways]) {
			return fmt.Sprintf("NRU bits of the set at way %d differ", base)
		}
	}
	return ""
}

// FuzzCacheMatchesReference drives a Cache and the stamp-based reference
// with one random Lookup/Fill/Invalidate/Reset stream over geometries
// of 1-13 sets (most not powers of two), 1-20 ways and every replacement
// policy, and compares every result and the resident set after each op.
// Each op draws its line from one of three windows, twice the cache's
// lines wide: the lowest lines, the lines whose tags cross bit 31, and
// the highest lines arch.SystemConfig.Validate admits for the set count,
// whose tag is one below the empty-way sentinel.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), uint8(0))
	f.Add(int64(2), uint8(2), uint8(19), uint8(0))
	f.Add(int64(3), uint8(5), uint8(7), uint8(1))
	f.Add(int64(4), uint8(11), uint8(15), uint8(2))
	f.Add(int64(5), uint8(3), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, setsIn, waysIn, policy uint8) {
		sets, ways := 1+int(setsIn%13), 1+int(waysIn%20)
		g := arch.CacheGeometry{
			SizeBytes:   sets * ways * arch.CacheLineSize,
			Ways:        ways,
			Latency:     4,
			Replacement: []arch.ReplacementPolicy{arch.ReplaceLRU, arch.ReplaceRandom, arch.ReplaceNRU}[policy%3],
		}
		c, ref := New(g), newRefCache(g)
		rng := rand.New(rand.NewSource(seed))
		lines := uint64(2*sets*ways + 1)
		top := maxLine(uint64(sets))
		windows := [...]uint64{0, uint64(sets)<<31 - lines/2, top + 1 - lines}
		for op := 0; op < 2000; op++ {
			line := windows[rng.Intn(len(windows))] + rng.Uint64()%lines
			switch r := rng.Intn(64); {
			case r == 0:
				c.Reset()
				ref.reset()
			case r < 24:
				if got, want := c.Lookup(line), ref.lookup(line); got != want {
					t.Fatalf("op %d: Lookup(%d) = %v, reference %v", op, line, got, want)
				}
			case r < 56:
				c.Fill(line)
				ref.fill(line)
			default:
				c.Invalidate(line)
				ref.invalidate(line)
			}
			if diff := c.sameState(ref); diff != "" {
				t.Fatalf("op %d (%s, %d sets x %d ways): %s", op, g.Replacement, sets, ways, diff)
			}
		}
	})
}

// maxLine is the largest line address whose tag, at the given set count,
// stays below the empty-way sentinel: the bound
// arch.SystemConfig.Validate enforces on physical memory.
func maxLine(sets uint64) uint64 { return sets*invalidTag - 1 }
