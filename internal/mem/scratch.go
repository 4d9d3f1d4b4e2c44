package mem

import "unsafe"

// MapScratch returns a zeroed slice of n pointer-free words and the
// function that frees it, for host scratch arrays a build needs only
// until it returns. A slice of a huge page or more is mapped outside the
// Go heap, hugeBytes-aligned and advised for transparent huge pages, and
// counted in HostMappedBytes until freed: its pages leave the process's
// resident set the moment the free function unmaps it, where a dead heap
// array stays resident until a collection frees it and the scavenger
// returns its pages. A smaller slice, or any slice when mapping fails,
// comes from make, and its free function does nothing.
//
// The free function must be called once, after the last read or write
// of the slice, and the slice dropped: its memory is gone.
func MapScratch[T ~uint32 | ~uint64](n int) ([]T, func()) {
	size := n * int(unsafe.Sizeof(T(0)))
	if size < hugeBytes {
		return make([]T, n), func() {}
	}
	// Whole huge pages, so the tail of the slice is advised too.
	b, unmap, err := mapSlab((size + hugeBytes - 1) &^ (hugeBytes - 1))
	if err != nil {
		return make([]T, n), func() {}
	}
	// The mapping is hugeBytes-aligned outside the Go heap, and T holds
	// no pointers, so viewing its bytes as words is safe.
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n), unmap
}
