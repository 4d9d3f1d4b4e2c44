package mem

import (
	"syscall"
	"unsafe"
)

// platformMapSlab maps an anonymous private region hugeBytes larger than
// size and returns its first hugeBytes-aligned size bytes, advised
// MADV_HUGEPAGE: with transparent huge pages in madvise or always mode,
// the first touch of each 2 MB then faults in one huge page instead of
// 512 small ones. The unaligned head and tail are never touched, so they
// cost address space only.
func platformMapSlab(size int) ([]byte, func(), error) {
	b, err := syscall.Mmap(-1, 0, size+hugeBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, nil, err
	}
	off := -int(uintptr(unsafe.Pointer(&b[0]))) & (hugeBytes - 1)
	slab := b[off : off+size : off+size]
	// The advice is best effort: with transparent huge pages off, the slab
	// is ordinary zeroed memory.
	_ = syscall.Madvise(slab, syscall.MADV_HUGEPAGE)
	hostMapped.Add(int64(len(b)))
	return slab, func() {
		if syscall.Munmap(b) == nil {
			hostMapped.Add(-int64(len(b)))
		}
	}, nil
}
