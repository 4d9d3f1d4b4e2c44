package mem

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"atscale/internal/arch"
)

// countMaps swaps mapSlab for a wrapper around the platform mapper that
// counts the slabs it has mapped and not yet unmapped, and restores the
// mapper when the test ends. The count sees only this test's slabs, so it
// is exact even while cleanups of earlier tests' memories run.
func countMaps(t *testing.T) *atomic.Int64 {
	t.Helper()
	var live atomic.Int64
	saved := mapSlab
	t.Cleanup(func() { mapSlab = saved })
	mapSlab = func(size int) ([]byte, func(), error) {
		s, unmap, err := saved(size)
		if err != nil {
			return nil, nil, err
		}
		live.Add(1)
		return s, func() { unmap(); live.Add(-1) }, nil
	}
	return &live
}

// TestResetZeroesLazily: after a Reset every word reads zero, the touched
// count restarts, and a spare chunk handed out again is fully zeroed, so
// the memory is indistinguishable from a fresh one given the same writes.
func TestResetZeroesLazily(t *testing.T) {
	p := NewPhys(arch.GB)
	pa, _ := p.AllocPage(arch.Page2M)
	for off := arch.PAddr(0); off < 64*arch.KB; off += 8 {
		p.Write64(pa+off, uint64(off)|1)
	}
	p.Reset()
	if got := p.TouchedBytes(); got != 0 {
		t.Errorf("touched after Reset = %d, want 0", got)
	}
	if got := p.Read64(pa + 8); got != 0 {
		t.Errorf("re-read after Reset = %#x, want 0", got)
	}
	p.host.mu.Lock()
	n := len(p.host.spare)
	p.host.mu.Unlock()
	if n != 16 {
		t.Fatalf("%d spare chunks after Reset, want 16", n)
	}

	// One write takes a spare chunk back; the rest of it must read zero.
	fresh := NewPhys(arch.GB)
	chunk := pa + 3*chunkBytes
	for _, q := range []*Phys{p, fresh} {
		q.AllocPage(arch.Page2M)
		q.Write64(chunk+16, 5)
	}
	for off := arch.PAddr(0); off < chunkBytes; off += 8 {
		want := uint64(0)
		if off == 16 {
			want = 5
		}
		if got := p.Read64(chunk + off); got != want {
			t.Fatalf("reused spare chunk reads %#x at +%d, want %#x", got, off, want)
		}
	}
	if !p.Equal(fresh) {
		t.Error("reset-and-rewritten memory differs from a fresh one with the same writes")
	}
}

// uncarved returns how many chunks are left to carve of p's newest slab.
func uncarved(p *Phys) int {
	p.host.mu.Lock()
	defer p.host.mu.Unlock()
	return len(p.host.slab)
}

// TestSparesShared: a Phys and the Words made from it share one spare
// list, so chunks one store's Reset freed serve the other's writes and
// nothing new is carved.
func TestSparesShared(t *testing.T) {
	p := NewPhys(arch.GB)
	w := p.NewWords()
	w.Grow(groupBytes)
	write := func(write64 func(a, v uint64), base, chunks uint64) {
		for i := uint64(0); i < chunks; i++ {
			write64(base+i*chunkBytes, i|1)
		}
	}
	write(p.write64, physBase, 16)
	write(w.write64, 0, 16)
	left := uncarved(p)
	p.Reset()
	w.Reset()
	// The data store takes the memory's 16 chunks as well as its own: 31
	// chunks and the group a second 2 MB of extent needs.
	w.Grow(2 * groupBytes)
	write(w.write64, groupBytes, 16)
	write(w.write64, 0, 15)
	if got := uncarved(p); got != left {
		t.Errorf("%d chunks carved after Reset, want none: the stores do not share their spares", left-got)
	}
	if got := w.read64(groupBytes + chunkBytes + 8); got != 0 {
		t.Errorf("a spare taken by the other store reads %#x, want 0", got)
	}
	p.Release()
}

// TestReleaseUnmaps: Release unmaps every slab, is idempotent, and any
// later use panics instead of touching unmapped memory.
func TestReleaseUnmaps(t *testing.T) {
	live := countMaps(t)
	p := NewPhys(arch.GB)
	pa, _ := p.AllocPage(arch.Page2M)
	p.Write64(pa, 1)
	if runtime.GOOS == "linux" {
		if live.Load() != 1 {
			t.Fatalf("%d slabs mapped after one write, want 1", live.Load())
		}
		if HostMappedBytes() < slabBytes {
			t.Errorf("HostMappedBytes = %d with a slab mapped", HostMappedBytes())
		}
	}
	p.Release()
	p.Release()
	if live.Load() != 0 {
		t.Errorf("%d slabs still mapped after Release", live.Load())
	}
	for name, use := range map[string]func(){
		"Read64":    func() { p.Read64(pa) },
		"Write64":   func() { p.Write64(pa, 2) },
		"AllocPage": func() { p.AllocPage(arch.Page4K) },
		"FreePage":  func() { p.FreePage(pa, arch.Page2M) },
		"Reset":     p.Reset,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestCleanupUnmapsUnreleased: a memory dropped without Release is
// unmapped once the garbage collector finds it unreachable.
func TestCleanupUnmapsUnreleased(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("slabs come from make on this platform")
	}
	live := countMaps(t)
	func() {
		p := NewPhys(arch.GB)
		p.Write64(physBase, 1)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for live.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("unreachable memory's slab was never unmapped")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestMakeFallback runs the package's tests with slab mapping failing, the
// path every platform but Linux always takes: chunks come from make and
// nothing is mapped.
func TestMakeFallback(t *testing.T) {
	live := countMaps(t)
	mapSlab = func(int) ([]byte, func(), error) { return nil, nil, errors.New("mapping refused") }
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"AllocAlignment", TestAllocAlignment},
		{"AllocDistinct", TestAllocDistinct},
		{"AllocOutOfMemory", TestAllocOutOfMemory},
		{"FreeReuse", TestFreeReuse},
		{"FreeMisalignedPanics", TestFreeMisalignedPanics},
		{"ReadWriteRoundTrip", TestReadWriteRoundTrip},
		{"UntouchedReadsZero", TestUntouchedReadsZero},
		{"LazyBacking", TestLazyBacking},
		{"UnalignedAccessPanics", TestUnalignedAccessPanics},
		{"WordIndependence", TestWordIndependence},
		{"MixedSizeAllocationsDontOverlap", TestMixedSizeAllocationsDontOverlap},
		{"WriteWordsStaysInChunk", TestWriteWordsStaysInChunk},
		{"NUMASingleNodeIsPlain", TestNUMASingleNodeIsPlain},
		{"NUMANodePlacement", TestNUMANodePlacement},
		{"NUMAFreeListStaysOnNode", TestNUMAFreeListStaysOnNode},
		{"NUMAResetRewindsEveryNode", TestNUMAResetRewindsEveryNode},
		{"NUMAOnNodeView", TestNUMAOnNodeView},
		{"NUMANodeOfClamps", TestNUMANodeOfClamps},
		{"ResetZeroesLazily", TestResetZeroesLazily},
	} {
		t.Run(tc.name, tc.test)
	}
	if live.Load() != 0 {
		t.Errorf("%d slabs mapped with mapping refused", live.Load())
	}
}

// benchMB is the footprint the layer benchmarks fill.
const benchMB = 64

// fillChunks writes every word of n consecutive chunks from off, a page
// at a time the way workload set-up does.
func fillChunks(w *Words, off uint64, n int) {
	var ws [chunkWords]uint64
	for i := range ws {
		ws[i] = uint64(i) | 1
	}
	for c := 0; c < n; c++ {
		w.WriteWords(off+uint64(c)*chunkBytes, ws[:])
	}
}

// BenchmarkFirstTouch fills benchMB of a fresh store and releases it: the
// per-chunk cost of carving, host page faults and unmapping.
func BenchmarkFirstTouch(b *testing.B) {
	const chunks = benchMB << 20 / chunkBytes
	for i := 0; i < b.N; i++ {
		p := NewPhys(arch.GB)
		w := p.NewWords()
		w.Grow(benchMB << 20)
		fillChunks(w, 0, chunks)
		w.Release()
		p.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunks), "ns/chunk")
}

// BenchmarkResetRefill resets a store that touched benchMB and rewrites a
// quarter of that footprint, the pooled-machine renew pattern of a unit
// smaller than its predecessor. Every rewritten chunk is a spare. It
// reports ns per rewritten chunk.
func BenchmarkResetRefill(b *testing.B) {
	const chunks = benchMB << 20 / chunkBytes
	p := NewPhys(arch.GB)
	defer p.Release()
	w := p.NewWords()
	w.Grow(benchMB << 20)
	fillChunks(w, 0, chunks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		fillChunks(w, 0, chunks/4)
		// Restore the full footprint, untimed, so every Reset starts from
		// the same state.
		b.StopTimer()
		fillChunks(w, chunks/4*chunkBytes, chunks-chunks/4)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunks/4), "ns/chunk")
}
