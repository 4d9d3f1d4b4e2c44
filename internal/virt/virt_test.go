package virt_test

import (
	"testing"

	"atscale/internal/arch"
	"atscale/internal/mem"
	"atscale/internal/pagetable"
	"atscale/internal/virt"
)

func newStack(t *testing.T, eptPages arch.PageSize) (*virt.Hypervisor, *virt.GuestPhys) {
	t.Helper()
	host := mem.NewPhys(64 * arch.GB)
	hyp, err := virt.NewHypervisor(host, eptPages)
	if err != nil {
		t.Fatal(err)
	}
	return hyp, virt.NewGuestPhys(hyp, 32*arch.GB)
}

func TestGuestPhysReadWriteRoundTrip(t *testing.T) {
	_, gphys := newStack(t, arch.Page4K)
	gpa, err := gphys.AllocPage(arch.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	for off := arch.PAddr(0); off < 4096; off += 8 {
		if v := gphys.Read64(gpa + off); v != 0 {
			t.Fatalf("fresh frame not zero at +%#x: %#x", uint64(off), v)
		}
	}
	gphys.Write64(gpa+16, 0xdead_beef_cafe_f00d)
	if v := gphys.Read64(gpa + 16); v != 0xdead_beef_cafe_f00d {
		t.Fatalf("readback = %#x", v)
	}
}

// TestGuestPhysRecycledFramesReadZero guards against stale host bytes
// leaking through the EPT: freed guest frames keep their host backing, so
// reuse must re-zero through the translation.
func TestGuestPhysRecycledFramesReadZero(t *testing.T) {
	_, gphys := newStack(t, arch.Page2M)
	gpa, err := gphys.AllocPage(arch.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	gphys.Write64(gpa+8, ^uint64(0))
	gphys.FreePage(gpa, arch.Page4K)
	gpa2, err := gphys.AllocPage(arch.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if gpa2 != gpa {
		t.Fatalf("free list did not recycle: got %#x, want %#x", uint64(gpa2), uint64(gpa))
	}
	if v := gphys.Read64(gpa2 + 8); v != 0 {
		t.Fatalf("recycled frame reads stale data: %#x", v)
	}
}

// TestEPTLeafGranularityBacking checks violation counting happens per
// EPT-leaf block: many 4KB guest frames inside one 2MB block cost one
// violation and one host frame.
func TestEPTLeafGranularityBacking(t *testing.T) {
	hyp, gphys := newStack(t, arch.Page2M)
	for i := 0; i < 64; i++ {
		if _, err := gphys.AllocPage(arch.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	if hyp.EPTViolations() != 1 {
		t.Errorf("violations = %d, want 1 (one 2MB block first-touched)", hyp.EPTViolations())
	}
	if hyp.HostMappedBytes() != arch.Page2M.Bytes() {
		t.Errorf("host mapped = %d, want one 2MB frame", hyp.HostMappedBytes())
	}

	hyp4k, gphys4k := newStack(t, arch.Page4K)
	for i := 0; i < 64; i++ {
		if _, err := gphys4k.AllocPage(arch.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	if hyp4k.EPTViolations() != 64 {
		t.Errorf("4KB-EPT violations = %d, want 64", hyp4k.EPTViolations())
	}
}

// TestGuestPageTableOverGuestPhys builds a real guest page table in
// guest-physical memory and checks both software lookups compose: the
// table's own pages translate through the EPT, and a mapped VA resolves
// to the host bytes that were written through the guest path.
func TestGuestPageTableOverGuestPhys(t *testing.T) {
	hyp, gphys := newStack(t, arch.Page2M)
	pt, err := pagetable.New(gphys)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := hyp.Translate(pt.Root()); !ok {
		t.Fatal("guest root table page not EPT-backed")
	}
	va := arch.VAddr(0x0000_0100_0000_0000)
	gframe, err := gphys.AllocPage(arch.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(va, gframe, arch.Page4K); err != nil {
		t.Fatal(err)
	}
	gphys.Write64(gframe+0x18, 0x1234_5678)

	gpa, size, ok := pt.Lookup(va + 0x18)
	if !ok || size != arch.Page4K {
		t.Fatalf("guest lookup failed: ok=%v size=%s", ok, size)
	}
	hpa, ok := hyp.Translate(gpa)
	if !ok {
		t.Fatalf("gPA %#x not EPT-backed", uint64(gpa))
	}
	if v := hyp.Host().Read64(hpa); v != 0x1234_5678 {
		t.Fatalf("host bytes at composed address = %#x, want 0x12345678", v)
	}
	if hyp.EPTTableBytes() == 0 {
		t.Error("EPT spent no table bytes")
	}
}
