package cache

import (
	"testing"

	"atscale/internal/arch"
)

func BenchmarkAccessHot(b *testing.B) {
	cfg := arch.DefaultSystem()
	h := NewHierarchy(&cfg)
	h.Access(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0x1000)
	}
}

func BenchmarkAccessStreaming(b *testing.B) {
	cfg := arch.DefaultSystem()
	h := NewHierarchy(&cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(arch.PAddr(uint64(i) * 64))
	}
}

func BenchmarkAccessThrashL3(b *testing.B) {
	cfg := arch.DefaultSystem()
	h := NewHierarchy(&cfg)
	// 2x the L3 working set, random-ish stride.
	lines := uint64(2 * cfg.L3.SizeBytes / 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(arch.PAddr((uint64(i) * 0x9E3779B9 % lines) * 64))
	}
}

// mixedStream is BenchmarkAccessMixed's line-address stream: a
// deterministic draw from four pools sized so that, on the default
// hierarchy, accesses hit L1, L2, L3 and DRAM in about the proportions
// a walk-4k pass measures (35/14/36/14%). The L3 pool is random over
// 200 k lines, so its hits land at every recency depth of a full
// 20-way set. The stream is long enough that its DRAM lines, each used
// once per pass, have left the L3 before they recur.
func mixedStream() []arch.PAddr {
	const (
		l1Lines   = 128
		l2Lines   = 512
		l3Lines   = 200_000
		dramLines = 1 << 30
		n         = 1 << 22
	)
	s := make([]arch.PAddr, n)
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range s {
		var line uint64
		switch r := next() % 100; {
		case r < 38:
			line = next() % l1Lines
		case r < 51:
			line = l1Lines + next()%l2Lines
		case r < 86:
			line = l1Lines + l2Lines + next()%l3Lines
		default:
			line = l1Lines + l2Lines + l3Lines + next()%dramLines
		}
		s[i] = arch.PAddr(line * arch.CacheLineSize)
	}
	return s
}

// BenchmarkAccessMixed replays mixedStream through a warmed default
// hierarchy and reports the share of accesses each level served.
func BenchmarkAccessMixed(b *testing.B) {
	cfg := arch.DefaultSystem()
	h := NewHierarchy(&cfg)
	s := mixedStream()
	for _, pa := range s {
		h.Access(pa)
	}
	var locs [NumHitLocs]int
	mask := len(s) - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, loc := h.Access(s[i&mask])
		locs[loc]++
	}
	b.StopTimer()
	for loc, n := range locs {
		b.ReportMetric(float64(n)/float64(b.N), HitLoc(loc).String()+"-frac")
	}
}
