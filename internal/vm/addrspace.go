// Package vm is the simulated guest operating system's memory manager: a
// malloc-style virtual allocator, demand paging, and the hugepage backing
// policy the paper configures through hugetlbfs and the
// glibc.malloc.hugetlb tunable (§III).
//
// The policy reproduces the paper's baseline subtlety (§III-B): under the
// 1 GB policy, allocations smaller than 1 GB cannot come from the 1 GB
// pool and fall back to 4 KB pages, which is why min(t_2MB, t_1GB) — not
// t_1GB alone — approximates the translation-free baseline.
package vm

import (
	"fmt"
	"sort"

	"atscale/internal/arch"
	"atscale/internal/mem"
	"atscale/internal/pagetable"
)

// HeapBase is the first heap virtual address: every address Malloc
// returns lies in [HeapBase, HeapEnd()).
const HeapBase arch.VAddr = 0x0000_0100_0000_0000

const (
	// regionGap separates consecutive regions to catch stray accesses.
	regionGap = 64 * arch.KB
	// mmapThreshold routes large allocations to their own region, like
	// glibc's M_MMAP_THRESHOLD.
	mmapThreshold = 128 * arch.KB
	// arenaChunk is the growth increment of the small-allocation arena.
	arenaChunk = 4 * arch.MB
)

// Region is one contiguous virtual mapping with a single backing page size.
type Region struct {
	// Base is the region's first virtual address.
	Base arch.VAddr
	// Len is the region's length in bytes (a multiple of Backing).
	Len uint64
	// Backing is the page size demand faults map the region with.
	Backing arch.PageSize
}

// End returns the first address past the region.
func (r Region) End() arch.VAddr { return r.Base + arch.VAddr(r.Len) }

// Tables is the page-table organization an address space maintains. The
// radix pagetable.Table is the production implementation; the hashed
// table is the alternative-structure extension.
type Tables interface {
	// Map installs va -> pa at the given page size.
	Map(va arch.VAddr, pa arch.PAddr, ps arch.PageSize) error
	// Unmap removes a translation installed with the same size.
	Unmap(va arch.VAddr, ps arch.PageSize) error
	// Lookup is the software reference walk.
	Lookup(va arch.VAddr) (arch.PAddr, arch.PageSize, bool)
	// Root is the hardware walker's CR3 value.
	Root() arch.PAddr
	// TableBytes is the physical memory spent on translation structures.
	TableBytes() uint64
	// Collapse removes an emptied leaf table under va's 2 MB block
	// (hugepage promotion); unsupported organizations return an error.
	Collapse(va arch.VAddr) error
	// Canonical reports whether va is representable.
	Canonical(va arch.VAddr) bool
	// Superpages reports whether 2 MB/1 GB leaves are supported.
	Superpages() bool
	// Reset discards every mapping and rebuilds the empty table over
	// physical memory that was itself reset first.
	Reset() error
}

// AddrSpace is one process's virtual address space.
type AddrSpace struct {
	phys   mem.Memory
	pt     Tables
	policy arch.PageSize

	next    arch.VAddr // next free virtual address
	regions []Region   // sorted by Base

	// arena is the open small-allocation arena (index into regions, or -1).
	arena    int
	arenaOff uint64

	allocated uint64 // malloc'd bytes (footprint, 4 KB rounded)
	mapped    uint64 // bytes actually mapped by demand faults
	faults    uint64

	// promoted tracks 2 MB blocks collapsed to superpages (see
	// promote.go).
	promoted   map[arch.VAddr]bool
	promotions uint64
}

// NewAddrSpace creates an empty 4-level address space whose heap is backed
// according to the given page-size policy.
func NewAddrSpace(phys mem.Memory, policy arch.PageSize) (*AddrSpace, error) {
	return NewAddrSpaceDepth(phys, policy, 4)
}

// NewAddrSpaceDepth is NewAddrSpace with an explicit paging depth (4 or 5
// levels).
func NewAddrSpaceDepth(phys mem.Memory, policy arch.PageSize, levels int) (*AddrSpace, error) {
	pt, err := pagetable.NewWithDepth(phys, levels)
	if err != nil {
		return nil, err
	}
	return NewAddrSpaceTables(phys, policy, pt)
}

// NewAddrSpaceTables builds an address space over a caller-supplied
// page-table organization (the hashed-table extension's entry point).
func NewAddrSpaceTables(phys mem.Memory, policy arch.PageSize, pt Tables) (*AddrSpace, error) {
	if !pt.Superpages() && policy != arch.Page4K {
		return nil, fmt.Errorf("vm: %s backing requires a page-table organization with superpages", policy)
	}
	return &AddrSpace{
		phys:   phys,
		pt:     pt,
		policy: policy,
		next:   HeapBase,
		arena:  -1,
	}, nil
}

// Reset returns the address space to its just-created state under the
// given backing policy, reusing the regions slice and promotion map. The
// caller must reset the underlying physical memory first; Reset then
// rebuilds the (empty) page table over it.
func (as *AddrSpace) Reset(policy arch.PageSize) error {
	if !as.pt.Superpages() && policy != arch.Page4K {
		return fmt.Errorf("vm: %s backing requires a page-table organization with superpages", policy)
	}
	if err := as.pt.Reset(); err != nil {
		return err
	}
	as.policy = policy
	as.next = HeapBase
	as.regions = as.regions[:0]
	as.arena = -1
	as.arenaOff = 0
	as.allocated, as.mapped, as.faults = 0, 0, 0
	clear(as.promoted)
	as.promotions = 0
	return nil
}

// PageTable exposes the address space's page tables (the walker needs
// the root, tests need the oracle Lookup).
func (as *AddrSpace) PageTable() Tables { return as.pt }

// Policy returns the configured backing page size.
func (as *AddrSpace) Policy() arch.PageSize { return as.policy }

// BackingFor returns the page size the policy actually backs an
// allocation of n bytes with. Under the 1 GB policy, sub-1 GB allocations
// fall back to 4 KB (the hugetlbfs pool granularity cannot cover them).
func (as *AddrSpace) BackingFor(n uint64) arch.PageSize {
	if as.policy == arch.Page1G && n < arch.GB {
		return arch.Page4K
	}
	return as.policy
}

// Malloc allocates n bytes of zeroed virtual memory and returns its base
// address (16-byte aligned). Memory is mapped lazily on first access.
func (as *AddrSpace) Malloc(n uint64) (arch.VAddr, error) {
	if n == 0 {
		n = 16
	}
	n = arch.AlignUp(n, 16)
	if n < mmapThreshold {
		return as.smallAlloc(n)
	}
	backing := as.BackingFor(n)
	r, err := as.addRegion(arch.AlignUp(n, backing.Bytes()), backing)
	if err != nil {
		return 0, err
	}
	as.allocated += arch.AlignUp(n, arch.Page4K.Bytes())
	return r.Base, nil
}

// smallAlloc bumps inside the open arena, opening a new arena chunk when
// the current one is exhausted.
func (as *AddrSpace) smallAlloc(n uint64) (arch.VAddr, error) {
	if as.arena < 0 || as.arenaOff+n > as.regions[as.arena].Len {
		backing := as.BackingFor(arenaChunk)
		if _, err := as.addRegion(arch.AlignUp(arenaChunk, backing.Bytes()), backing); err != nil {
			return 0, err
		}
		as.arena = len(as.regions) - 1 // addRegion appends
		as.arenaOff = 0
	}
	va := as.regions[as.arena].Base + arch.VAddr(as.arenaOff)
	as.arenaOff += n
	as.allocated += arch.AlignUp(n, arch.Page4K.Bytes())
	return va, nil
}

// addRegion reserves a fresh virtual region of len bytes (a multiple of
// backing) and records it for demand paging. Virtual addresses are never
// reused — next only grows — so appending keeps regions sorted.
func (as *AddrSpace) addRegion(length uint64, backing arch.PageSize) (Region, error) {
	base := arch.VAddr(arch.AlignUp(uint64(as.next), backing.Bytes()))
	if !as.pt.Canonical(base + arch.VAddr(length)) {
		return Region{}, fmt.Errorf("vm: virtual address space exhausted at %#x", uint64(base))
	}
	r := Region{Base: base, Len: length, Backing: backing}
	as.regions = append(as.regions, r)
	as.next = r.End() + regionGap
	return r, nil
}

// HeapEnd bounds the heap: no region reaches it. Virtual addresses are
// never reused, so it only grows, with each Malloc that opens a region.
func (as *AddrSpace) HeapEnd() arch.VAddr { return as.next }

// Find returns the region containing va, if any.
func (as *AddrSpace) Find(va arch.VAddr) (Region, bool) {
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].End() > va })
	if i < len(as.regions) && va >= as.regions[i].Base {
		return as.regions[i], true
	}
	return Region{}, false
}

// HandleFault services a demand page fault at va: it allocates a frame of
// the containing region's backing size and installs the mapping. It
// returns the mapped page size. Faults outside any region are guest
// segfaults and return an error.
func (as *AddrSpace) HandleFault(va arch.VAddr) (arch.PageSize, error) {
	r, ok := as.Find(va)
	if !ok {
		return 0, fmt.Errorf("vm: segfault at %#x (no region)", uint64(va))
	}
	base := arch.PageBase(va, r.Backing)
	frame, err := as.phys.AllocPage(r.Backing)
	if err != nil {
		return 0, fmt.Errorf("vm: demand fault at %#x: %w", uint64(va), err)
	}
	if err := as.pt.Map(base, frame, r.Backing); err != nil {
		return 0, fmt.Errorf("vm: demand fault at %#x: %w", uint64(va), err)
	}
	as.mapped += r.Backing.Bytes()
	as.faults++
	return r.Backing, nil
}

// AllocatedBytes is the program's memory footprint: malloc'd bytes rounded
// to 4 KB pages. The paper indexes every experiment by this quantity
// measured under the 4 KB configuration; rounding to the base page keeps
// the number identical across backing policies.
func (as *AddrSpace) AllocatedBytes() uint64 { return as.allocated }

// MappedBytes is the demand-mapped memory (the RSS analogue; includes
// backing-size rounding, so it exceeds AllocatedBytes under superpages).
func (as *AddrSpace) MappedBytes() uint64 { return as.mapped }

// Faults returns the number of demand faults taken.
func (as *AddrSpace) Faults() uint64 { return as.faults }

// Regions returns the live regions (read-only view for tests/tools).
func (as *AddrSpace) Regions() []Region { return as.regions }
