package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atscale/internal/arch"
)

func TestAllocAlignment(t *testing.T) {
	p := NewPhys(8 * arch.GB)
	for ps := arch.Page4K; ps < arch.NumPageSizes; ps++ {
		pa, err := p.AllocPage(ps)
		if err != nil {
			t.Fatalf("AllocPage(%v): %v", ps, err)
		}
		if !arch.IsAligned(uint64(pa), ps.Bytes()) {
			t.Errorf("AllocPage(%v) = %#x not aligned", ps, uint64(pa))
		}
		if pa == 0 {
			t.Errorf("AllocPage(%v) returned physical page zero", ps)
		}
	}
}

func TestAllocDistinct(t *testing.T) {
	p := NewPhys(arch.GB)
	seen := map[arch.PAddr]bool{}
	for i := 0; i < 1000; i++ {
		pa, err := p.AllocPage(arch.Page4K)
		if err != nil {
			t.Fatal(err)
		}
		if seen[pa] {
			t.Fatalf("frame %#x allocated twice", uint64(pa))
		}
		seen[pa] = true
	}
}

func TestAllocOutOfMemory(t *testing.T) {
	p := NewPhys(16 * arch.KB)
	var last error
	for i := 0; i < 10; i++ {
		if _, err := p.AllocPage(arch.Page4K); err != nil {
			last = err
			break
		}
	}
	if last == nil {
		t.Fatal("expected out-of-memory error")
	}
}

func TestFreeReuse(t *testing.T) {
	p := NewPhys(arch.GB)
	pa, _ := p.AllocPage(arch.Page2M)
	p.Write64(pa, 0xdeadbeef)
	p.FreePage(pa, arch.Page2M)
	pa2, err := p.AllocPage(arch.Page2M)
	if err != nil {
		t.Fatal(err)
	}
	if pa2 != pa {
		t.Errorf("freed frame not reused: got %#x want %#x", uint64(pa2), uint64(pa))
	}
	if v := p.Read64(pa2); v != 0 {
		t.Errorf("reused frame not zeroed: %#x", v)
	}
}

func TestFreeMisalignedPanics(t *testing.T) {
	p := NewPhys(arch.GB)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for misaligned FreePage")
		}
	}()
	p.FreePage(arch.PAddr(4096+8), arch.Page4K)
}

func TestReadWriteRoundTrip(t *testing.T) {
	p := NewPhys(arch.GB)
	pa, _ := p.AllocPage(arch.Page4K)
	check := func(off uint16, v uint64) bool {
		a := pa + arch.PAddr(off&0xFF8) // aligned offset within the frame
		p.Write64(a, v)
		return p.Read64(a) == v
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestUntouchedReadsZero(t *testing.T) {
	p := NewPhys(arch.GB)
	pa, _ := p.AllocPage(arch.Page1G)
	if v := p.Read64(pa + 512*arch.MB); v != 0 {
		t.Errorf("untouched superpage read %#x, want 0", v)
	}
	if p.TouchedBytes() != 0 {
		t.Errorf("read materialized backing: %d bytes", p.TouchedBytes())
	}
}

func TestLazyBacking(t *testing.T) {
	p := NewPhys(8 * arch.GB)
	pa, _ := p.AllocPage(arch.Page1G)
	if p.ReservedBytes() != arch.GB {
		t.Errorf("reserved = %d, want 1GB", p.ReservedBytes())
	}
	p.Write64(pa, 1)
	p.Write64(pa+700*arch.MB, 2)
	if got := p.TouchedBytes(); got != 2*4*arch.KB {
		t.Errorf("touched = %d, want 8KB", got)
	}
	p.FreePage(pa, arch.Page1G)
	if got := p.TouchedBytes(); got != 0 {
		t.Errorf("touched after free = %d, want 0", got)
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	p := NewPhys(arch.GB)
	pa, _ := p.AllocPage(arch.Page4K)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unaligned Read64")
		}
	}()
	p.Read64(pa + 1)
}

func TestWordIndependence(t *testing.T) {
	// Writing one word must not disturb its neighbours, across chunk
	// boundaries included.
	p := NewPhys(arch.GB)
	pa, _ := p.AllocPage(arch.Page2M)
	rng := rand.New(rand.NewSource(1))
	want := map[arch.PAddr]uint64{}
	for i := 0; i < 4096; i++ {
		a := pa + arch.PAddr(rng.Intn(2*arch.MB/8))*8
		v := rng.Uint64()
		p.Write64(a, v)
		want[a] = v
	}
	for a, v := range want {
		if got := p.Read64(a); got != v {
			t.Fatalf("Read64(%#x) = %#x, want %#x", uint64(a), got, v)
		}
	}
}

func TestMixedSizeAllocationsDontOverlap(t *testing.T) {
	p := NewPhys(256 * arch.GB)
	type frame struct {
		pa arch.PAddr
		ps arch.PageSize
	}
	var frames []frame
	rng := rand.New(rand.NewSource(7))
	sizes := []arch.PageSize{arch.Page4K, arch.Page4K, arch.Page4K, arch.Page2M, arch.Page2M, arch.Page1G}
	for i := 0; i < 200; i++ {
		ps := sizes[rng.Intn(len(sizes))]
		pa, err := p.AllocPage(ps)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame{pa, ps})
	}
	for i, a := range frames {
		for j, b := range frames {
			if i == j {
				continue
			}
			aEnd := uint64(a.pa) + a.ps.Bytes()
			bEnd := uint64(b.pa) + b.ps.Bytes()
			if uint64(a.pa) < bEnd && uint64(b.pa) < aEnd {
				t.Fatalf("frames overlap: %#x/%v and %#x/%v", uint64(a.pa), a.ps, uint64(b.pa), b.ps)
			}
		}
	}
}
