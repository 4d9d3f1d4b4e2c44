// Package virt adds the virtualization layer under the simulated machine:
// a hypervisor owning host physical memory and a second set of page
// tables — the extended page tables (EPT) — that translate guest-physical
// addresses to host-physical ones, plus a guest-physical memory
// implementation of mem.Memory that guest OS structures (page-table pages
// included) are built in.
//
// The layering mirrors hardware nested paging: a guest page table built
// over GuestPhys stores guest-physical pointers in its entries and keeps
// its table pages at guest-physical addresses, so resolving any one guest
// level requires a full EPT walk first. That multiplication — up to
// (n_g+1)·n_e + n_g PTE loads for an n_g-level guest walk over an
// n_e-level EPT, 24 for 4 KB guest pages over a 4 KB EPT — is what the
// nested walker in internal/walker charges, load by load, through the
// same cache hierarchy as everything else.
package virt

import (
	"fmt"

	"atscale/internal/arch"
	"atscale/internal/mem"
	"atscale/internal/pagetable"
)

// gpaBase is the first guest-physical address handed out. Like mem.Phys,
// guest-physical page zero stays unused to catch null-pointer bugs in the
// guest page-table code.
const gpaBase arch.PAddr = arch.PhysBase

// Hypervisor owns host physical memory on behalf of its guests: it
// maintains the EPT (a radix table over host memory whose input addresses
// are guest-physical) and backs guest-physical frames with host frames of
// the configured EPT leaf size. One hypervisor may serve several guest
// address spaces; they share the EPT, which is the multi-tenant
// EPT-sharing configuration the virtualization sweeps measure.
type Hypervisor struct {
	host *mem.Phys
	ept  *pagetable.Table
	leaf arch.PageSize

	violations uint64 // EPT mappings installed (first touch of a gPA block)
	hostMapped uint64 // host bytes backing guest-physical memory
}

// NewHypervisor builds a hypervisor over host memory whose EPT maps
// guest-physical memory with leaves of the given size.
func NewHypervisor(host *mem.Phys, eptPages arch.PageSize) (*Hypervisor, error) {
	if eptPages >= arch.NumPageSizes {
		return nil, fmt.Errorf("virt: invalid EPT page size %d", eptPages)
	}
	ept, err := pagetable.New(host)
	if err != nil {
		return nil, fmt.Errorf("virt: allocating EPT: %w", err)
	}
	return &Hypervisor{host: host, ept: ept, leaf: eptPages}, nil
}

// Reset discards every EPT mapping and rebuilds the empty EPT, returning
// the hypervisor to its just-constructed state. The caller must reset
// host memory first, so the EPT root lands where a fresh one's would.
func (h *Hypervisor) Reset() error {
	if err := h.ept.Reset(); err != nil {
		return fmt.Errorf("virt: reallocating EPT: %w", err)
	}
	h.violations, h.hostMapped = 0, 0
	return nil
}

// EPT exposes the extended page table (the nested walker reads it through
// host memory; tests use its software Lookup as the host-dimension
// oracle).
func (h *Hypervisor) EPT() *pagetable.Table { return h.ept }

// Root returns the EPT root pointer (the EPTP).
func (h *Hypervisor) Root() arch.PAddr { return h.ept.Root() }

// EPTPages returns the EPT leaf policy.
func (h *Hypervisor) EPTPages() arch.PageSize { return h.leaf }

// Host exposes the host physical memory.
func (h *Hypervisor) Host() *mem.Phys { return h.host }

// EPTViolations counts EPT mappings installed — each is the service of
// one first-touch EPT violation for an EPT-leaf-sized guest-physical
// block.
func (h *Hypervisor) EPTViolations() uint64 { return h.violations }

// HostMappedBytes is the host physical memory backing guest-physical
// memory (EPT leaf granularity, so it exceeds the guest's own mapped
// bytes when EPT leaves are larger than guest frames).
func (h *Hypervisor) HostMappedBytes() uint64 { return h.hostMapped }

// EPTTableBytes is the host memory spent on EPT table pages — the
// host-dimension analogue of the guest's PageTableBytes.
func (h *Hypervisor) EPTTableBytes() uint64 { return h.ept.TableBytes() }

// Translate is the software gPA -> hPA oracle: the composition target the
// nested hardware-walker model is property- and fuzz-tested against.
func (h *Hypervisor) Translate(gpa arch.PAddr) (arch.PAddr, bool) {
	hpa, _, ok := h.ept.Lookup(arch.VAddr(gpa))
	return hpa, ok
}

// ensureBacked maps every EPT-leaf-sized block overlapping
// [gpa, gpa+n) that is not yet present, allocating host frames as it
// goes.
func (h *Hypervisor) ensureBacked(gpa arch.PAddr, n uint64) error {
	size := h.leaf.Bytes()
	start := arch.AlignDown(uint64(gpa), size)
	end := arch.AlignUp(uint64(gpa)+n, size)
	for b := start; b < end; b += size {
		if _, ok := h.Translate(arch.PAddr(b)); ok {
			continue
		}
		frame, err := h.host.AllocPage(h.leaf)
		if err != nil {
			return fmt.Errorf("virt: backing gPA %#x: %w", b, err)
		}
		if err := h.ept.Map(arch.VAddr(b), frame, h.leaf); err != nil {
			return fmt.Errorf("virt: EPT map of gPA %#x: %w", b, err)
		}
		h.violations++
		h.hostMapped += size
	}
	return nil
}

// GuestPhys is guest-physical memory: mem.Memory in guest-physical
// address space. Frames handed out are guest-physical; loads and stores
// translate through the hypervisor's EPT to reach the host bytes. Guest
// page tables built over a GuestPhys therefore keep their table pages —
// root included — at guest-physical addresses, exactly what the 2D
// walker needs.
//
// Backing is eager: allocating a guest-physical frame installs any
// missing EPT mapping immediately, so by the time the guest (or the
// hardware walker) touches a legitimately allocated gPA, translation is
// total. The EPT-violation count still records each first-touch mapping.
type GuestPhys struct {
	hyp   *Hypervisor
	limit uint64 // guest-physical capacity in bytes
	used  uint64 // guest-physical bytes handed out
	next  arch.PAddr

	// free recycles returned guest frames per size class. Recycled
	// frames are re-zeroed through the EPT on reuse (host backing may
	// hold stale guest data).
	free [arch.NumPageSizes][]arch.PAddr

	// lastGCN/lastHCN cache the most recent 4 KB-chunk translation;
	// EPT mappings are only ever removed all at once by Reset, which
	// drops the cache too.
	lastGCN uint64
	lastHCN arch.PAddr
	lastOK  bool
}

var _ mem.Memory = (*GuestPhys)(nil)

// NewGuestPhys creates a guest-physical memory of the given capacity,
// backed by the hypervisor's host memory through its EPT.
func NewGuestPhys(hyp *Hypervisor, limitBytes uint64) *GuestPhys {
	return &GuestPhys{hyp: hyp, limit: limitBytes, next: gpaBase}
}

// Reset returns the guest-physical memory to its just-constructed state:
// allocator rewound, free lists and translation cache emptied. The
// hypervisor is reset separately (and first).
func (g *GuestPhys) Reset() {
	g.used, g.next = 0, gpaBase
	for ps := range g.free {
		g.free[ps] = g.free[ps][:0]
	}
	g.lastGCN, g.lastHCN, g.lastOK = 0, 0, false
}

// Hypervisor returns the backing hypervisor.
func (g *GuestPhys) Hypervisor() *Hypervisor { return g.hyp }

// ReservedBytes returns the guest-physical bytes handed out.
func (g *GuestPhys) ReservedBytes() uint64 { return g.used }

// AllocPage allocates one naturally aligned guest-physical frame and
// guarantees (a) it is EPT-backed and (b) it reads as zero through the
// guest.
func (g *GuestPhys) AllocPage(ps arch.PageSize) (arch.PAddr, error) {
	if n := len(g.free[ps]); n > 0 {
		gpa := g.free[ps][n-1]
		g.free[ps] = g.free[ps][:n-1]
		g.zero(gpa, ps.Bytes())
		return gpa, nil
	}
	size := ps.Bytes()
	base := arch.PAddr(arch.AlignUp(uint64(g.next), size))
	if uint64(base)+size-uint64(gpaBase) > g.limit {
		return 0, fmt.Errorf("virt: out of guest-physical memory (limit %s, requested %s frame)",
			arch.FormatBytes(g.limit), ps)
	}
	g.next = base + arch.PAddr(size)
	g.used += size
	if err := g.hyp.ensureBacked(base, size); err != nil {
		return 0, err
	}
	// Fresh host frames are zero; the block may still share an EPT leaf
	// with previously freed-and-dirtied guest memory only via the free
	// list, which re-zeroes on reuse, so no zeroing is needed here.
	return base, nil
}

// FreePage returns a guest frame to the allocator. The EPT mapping (and
// host backing) is retained, as production hypervisors retain it.
func (g *GuestPhys) FreePage(gpa arch.PAddr, ps arch.PageSize) {
	if !arch.IsAligned(uint64(gpa), ps.Bytes()) {
		panic(fmt.Sprintf("virt: FreePage(%#x) misaligned for %s", uint64(gpa), ps))
	}
	g.free[ps] = append(g.free[ps], gpa)
}

// translate resolves the host 4 KB chunk containing gpa.
func (g *GuestPhys) translate(gpa arch.PAddr) arch.PAddr {
	gcn := uint64(gpa) >> arch.PageShift4K
	if g.lastOK && g.lastGCN == gcn {
		return g.lastHCN + arch.PAddr(uint64(gpa)&arch.Page4K.Mask())
	}
	hpa, ok := g.hyp.Translate(gpa)
	if !ok {
		panic(fmt.Sprintf("virt: access to unbacked gPA %#x", uint64(gpa)))
	}
	g.lastGCN, g.lastHCN, g.lastOK = gcn, hpa-arch.PAddr(uint64(gpa)&arch.Page4K.Mask()), true
	return hpa
}

// Read64 loads the 8-byte word at guest-physical address gpa.
func (g *GuestPhys) Read64(gpa arch.PAddr) uint64 {
	return g.hyp.host.Read64(g.translate(gpa))
}

// Write64 stores an 8-byte word at guest-physical address gpa.
func (g *GuestPhys) Write64(gpa arch.PAddr, v uint64) {
	g.hyp.host.Write64(g.translate(gpa), v)
}

// zero clears a guest-physical range (4 KB-aligned) through the EPT.
func (g *GuestPhys) zero(gpa arch.PAddr, n uint64) {
	const chunk = uint64(1) << arch.PageShift4K
	for off := uint64(0); off < n; off += chunk {
		g.hyp.host.ZeroRange(g.translate(gpa+arch.PAddr(off)), chunk)
	}
}
