package mem

import (
	"errors"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// settledHostMapped returns HostMappedBytes once the cleanups of memories
// earlier tests left unreachable have run, so a test can compare the
// gauge across its own maps and unmaps.
func settledHostMapped() int64 {
	runtime.GC()
	prev := HostMappedBytes()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := HostMappedBytes()
		if cur == prev {
			break
		}
		prev = cur
	}
	return prev
}

// checkScratch requires s to hold n zeroed words and to keep what is
// written to it.
func checkScratch[T ~uint32 | ~uint64](t *testing.T, s []T, n int) {
	t.Helper()
	if len(s) != n {
		t.Fatalf("len = %d, want %d", len(s), n)
	}
	for i, v := range s {
		if v != 0 {
			t.Fatalf("word %d of fresh scratch = %#x, want 0", i, v)
		}
	}
	for i := range s {
		s[i] = T(i) | 1
	}
	for i, v := range s {
		if v != T(i)|1 {
			t.Fatalf("word %d reads %#x after writing %#x", i, v, T(i)|1)
		}
	}
}

// TestMapScratchMapsAndUnmaps: on Linux a request of a huge page or more
// is mapped, huge-page-aligned, counted in HostMappedBytes by the whole
// mapping, and uncounted again once freed.
func TestMapScratchMapsAndUnmaps(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("scratch comes from make on this platform")
	}
	live := countMaps(t)
	for _, n := range []int{hugeBytes / 8, 3 << 20 / 8, 5<<20/8 + 3} {
		before := settledHostMapped()
		s, free := MapScratch[uint64](n)
		if live.Load() != 1 {
			t.Fatalf("%d words: %d mappings live, want 1", n, live.Load())
		}
		if a := uintptr(unsafe.Pointer(unsafe.SliceData(s))); a%hugeBytes != 0 {
			t.Errorf("%d words: scratch at %#x is not huge-page-aligned", n, a)
		}
		// The mapping is the request rounded up to whole huge pages, plus
		// the huge page the alignment takes.
		pages := (n*8 + hugeBytes - 1) / hugeBytes
		if got, want := HostMappedBytes()-before, int64(pages+1)*hugeBytes; got != want {
			t.Errorf("%d words: HostMappedBytes rose by %d, want %d", n, got, want)
		}
		checkScratch(t, s, n)
		free()
		if live.Load() != 0 {
			t.Errorf("%d words: mapping still live after free", n)
		}
		if got := HostMappedBytes(); got != before {
			t.Errorf("%d words: HostMappedBytes = %d after free, want %d", n, got, before)
		}
	}
}

// TestMapScratchSmallFromMake: a request under one huge page maps
// nothing, whatever its word size.
func TestMapScratchSmallFromMake(t *testing.T) {
	live := countMaps(t)
	s32, free32 := MapScratch[uint32](hugeBytes/4 - 1)
	s64, free64 := MapScratch[uint64](hugeBytes/8 - 1)
	empty, freeEmpty := MapScratch[uint32](0)
	if live.Load() != 0 {
		t.Fatalf("%d mappings live for requests under a huge page", live.Load())
	}
	checkScratch(t, s32, hugeBytes/4-1)
	checkScratch(t, s64, hugeBytes/8-1)
	checkScratch(t, empty, 0)
	free32()
	free64()
	freeEmpty()
}

// TestMapScratchFallback: with mapping refused, the path every platform
// but Linux always takes, even a large request comes from make and its
// free function does nothing.
func TestMapScratchFallback(t *testing.T) {
	live := countMaps(t)
	mapSlab = func(int) ([]byte, func(), error) { return nil, nil, errors.New("mapping refused") }
	before := settledHostMapped()
	const n = 3 * hugeBytes / 4
	s, free := MapScratch[uint32](n)
	if live.Load() != 0 || HostMappedBytes() != before {
		t.Fatalf("scratch mapped with mapping refused: %d live, HostMappedBytes %d → %d",
			live.Load(), before, HostMappedBytes())
	}
	checkScratch(t, s, n)
	free()
	if live.Load() != 0 || HostMappedBytes() != before {
		t.Errorf("HostMappedBytes = %d after freeing made scratch, want %d", HostMappedBytes(), before)
	}
}
