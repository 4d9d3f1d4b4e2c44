// Package arch defines the architectural vocabulary shared by every layer of
// the simulated machine: virtual/physical addresses, x86-64 page sizes and
// radix-tree geometry, and helpers for slicing virtual addresses into
// page-table indices.
//
// The model follows the 4-level x86-64 long-mode layout: a 48-bit virtual
// address is split into four 9-bit indices (PML4, PDPT, PD, PT) and a 12-bit
// page offset. Superpage leaves may appear at the PD level (2 MB) and the
// PDPT level (1 GB).
package arch

import "fmt"

// VAddr is a virtual address in the simulated guest address space.
type VAddr uint64

// PAddr is a physical address in the simulated machine's memory.
type PAddr uint64

// Architectural constants for x86-64 4-level paging.
const (
	// PageShift4K is log2 of the base page size.
	PageShift4K = 12
	// PageShift2M is log2 of the 2 MB superpage size.
	PageShift2M = 21
	// PageShift1G is log2 of the 1 GB superpage size.
	PageShift1G = 30

	// RadixBits is the number of virtual-address bits consumed per
	// page-table level.
	RadixBits = 9
	// EntriesPerTable is the number of PTEs in one page-table page.
	EntriesPerTable = 1 << RadixBits
	// PTESize is the size in bytes of one page-table entry.
	PTESize = 8

	// VABits is the number of implemented virtual-address bits with
	// 4-level paging.
	VABits = 48
	// VABits5 is the number of implemented virtual-address bits with
	// 5-level paging (LA57).
	VABits5 = 57
	// CacheLineSize is the size in bytes of one cache line.
	CacheLineSize = 64
	// PTEsPerLine is how many PTEs share one cache line.
	PTEsPerLine = CacheLineSize / PTESize

	// PhysBase is the first address simulated physical memory hands
	// out, host and guest alike: page zero stays unused, which catches
	// null-physical-address bugs in the page-table code. The last is
	// PhysBase + PhysMemBytes - 1.
	PhysBase = 1 << PageShift4K
	// CacheTagLimit is the data caches' empty-way tag. A way holds its
	// line's 32-bit set-relative tag, the line's quotient by the level's
	// set count, so Validate requires every physical line's tag to stay
	// below this sentinel.
	CacheTagLimit = 1<<32 - 1
)

// Handy byte-size constants.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
	TB = 1 << 40
)

// PageSize enumerates the three translation granularities of x86-64.
type PageSize uint8

const (
	// Page4K is the 4 KB base page.
	Page4K PageSize = iota
	// Page2M is the 2 MB superpage (leaf at the PD level).
	Page2M
	// Page1G is the 1 GB superpage (leaf at the PDPT level).
	Page1G
	// NumPageSizes is the number of supported page sizes.
	NumPageSizes
)

// pageShifts holds log2 of each page size in bytes, indexed by PageSize.
var pageShifts = [NumPageSizes]uint{Page4K: PageShift4K, Page2M: PageShift2M, Page1G: PageShift1G}

// Shift returns log2 of the page size in bytes. It is small enough to
// inline, and so are Bytes, Mask and PageBase on top of it: they run on
// every simulated access. The invalid-size panic stays cheap for the
// inliner because its message is formatted only when printed.
func (p PageSize) Shift() uint {
	if p >= NumPageSizes {
		panic(invalidPageSize(p))
	}
	return pageShifts[p]
}

// invalidPageSize is the panic value of a PageSize method called on a
// value that names no page size.
type invalidPageSize PageSize

func (e invalidPageSize) Error() string {
	return fmt.Sprintf("arch: invalid page size %d", uint8(e))
}

// Bytes returns the page size in bytes.
func (p PageSize) Bytes() uint64 { return 1 << p.Shift() }

// Mask returns the offset mask for the page size (Bytes()-1).
func (p PageSize) Mask() uint64 { return p.Bytes() - 1 }

// LeafLevel returns the page-table level at which a mapping of this size
// terminates: 1 for 4 KB (PT), 2 for 2 MB (PD), 3 for 1 GB (PDPT).
func (p PageSize) LeafLevel() Level {
	switch p {
	case Page4K:
		return LevelPT
	case Page2M:
		return LevelPD
	case Page1G:
		return LevelPDPT
	}
	panic(fmt.Sprintf("arch: invalid page size %d", p))
}

// WalkLength returns the number of page-table loads a walker performs for a
// full 4-level walk (no paging-structure-cache hits) that ends in a leaf of
// this size: 4 for 4 KB, 3 for 2 MB, 2 for 1 GB.
func (p PageSize) WalkLength() int { return p.WalkLengthAt(4) }

// WalkLengthAt is WalkLength for an arbitrary paging depth.
func (p PageSize) WalkLengthAt(levels int) int {
	return int(RootLevel(levels) - p.LeafLevel() + 1)
}

// String implements fmt.Stringer.
func (p PageSize) String() string {
	switch p {
	case Page4K:
		return "4KB"
	case Page2M:
		return "2MB"
	case Page1G:
		return "1GB"
	}
	return fmt.Sprintf("PageSize(%d)", uint8(p))
}

// ParsePageSize converts a human string ("4KB", "2MB", "1GB", case-exact as
// produced by String) back into a PageSize.
func ParsePageSize(s string) (PageSize, error) {
	switch s {
	case "4KB", "4K", "4k":
		return Page4K, nil
	case "2MB", "2M", "2m":
		return Page2M, nil
	case "1GB", "1G", "1g":
		return Page1G, nil
	}
	return Page4K, fmt.Errorf("arch: unknown page size %q", s)
}

// Level identifies a radix-tree level. Intel numbers the levels from the
// leaves: PT is level 1 and PML4 is level 4.
type Level uint8

const (
	// LevelPT is the leaf level holding 4 KB PTEs.
	LevelPT Level = 1
	// LevelPD holds PDEs; a PDE may be a 2 MB leaf.
	LevelPD Level = 2
	// LevelPDPT holds PDPTEs; a PDPTE may be a 1 GB leaf.
	LevelPDPT Level = 3
	// LevelPML4 is the root level of 4-level paging.
	LevelPML4 Level = 4
	// LevelPML5 is the root level of 5-level (LA57) paging.
	LevelPML5 Level = 5
)

// RootLevel returns the radix root for a paging depth (4 or 5 levels).
func RootLevel(levels int) Level {
	switch levels {
	case 4:
		return LevelPML4
	case 5:
		return LevelPML5
	}
	panic(fmt.Sprintf("arch: unsupported paging depth %d", levels))
}

// CanonicalAt reports whether va is canonical (lower half) for the given
// paging depth.
func CanonicalAt(va VAddr, levels int) bool {
	if levels == 5 {
		return uint64(va)>>VABits5 == 0
	}
	return uint64(va)>>VABits == 0
}

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelPT:
		return "PT"
	case LevelPD:
		return "PD"
	case LevelPDPT:
		return "PDPT"
	case LevelPML4:
		return "PML4"
	case LevelPML5:
		return "PML5"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// IndexShift returns the bit position of the 9-bit index this level consumes.
func (l Level) IndexShift() uint { return PageShift4K + RadixBits*uint(l-1) }

// Index extracts the 9-bit page-table index for level l from va.
func (l Level) Index(va VAddr) uint64 {
	return (uint64(va) >> l.IndexShift()) & (EntriesPerTable - 1)
}

// Prefix returns the virtual-address bits above and including this level's
// index, i.e. the tag a paging-structure cache at this level is indexed by.
func (l Level) Prefix(va VAddr) uint64 { return uint64(va) >> l.IndexShift() }

// PageBase returns va rounded down to the given page size.
func PageBase(va VAddr, p PageSize) VAddr { return va &^ VAddr(p.Mask()) }

// PageNumber returns the virtual page number of va at the given page size.
func PageNumber(va VAddr, p PageSize) uint64 { return uint64(va) >> p.Shift() }

// AlignUp rounds n up to the next multiple of align (a power of two).
func AlignUp(n, align uint64) uint64 { return (n + align - 1) &^ (align - 1) }

// AlignDown rounds n down to a multiple of align (a power of two).
func AlignDown(n, align uint64) uint64 { return n &^ (align - 1) }

// IsAligned reports whether n is a multiple of align (a power of two).
func IsAligned(n, align uint64) bool { return n&(align-1) == 0 }

// Canonical reports whether va is a canonical 48-bit address in the lower
// half of the address space (the only half the simulator uses).
func Canonical(va VAddr) bool { return uint64(va)>>VABits == 0 }

// LineAddr returns the cache-line-aligned address containing pa.
func LineAddr(pa PAddr) PAddr { return pa &^ (CacheLineSize - 1) }

// FormatBytes renders a byte count with a binary-unit suffix, for human
// readable tables ("512.0MB", "1.5GB").
func FormatBytes(n uint64) string {
	switch {
	case n >= TB:
		return fmt.Sprintf("%.1fTB", float64(n)/TB)
	case n >= GB:
		return fmt.Sprintf("%.1fGB", float64(n)/GB)
	case n >= MB:
		return fmt.Sprintf("%.1fMB", float64(n)/MB)
	case n >= KB:
		return fmt.Sprintf("%.1fKB", float64(n)/KB)
	}
	return fmt.Sprintf("%dB", n)
}
