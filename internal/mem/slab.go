package mem

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// slabBytes is the size of a mapped host slab: sixteen 2 MB huge pages.
// Only the huge pages chunks have been carved from are ever touched, so
// the slab size bounds the number of mappings, not host memory.
const slabBytes = 32 << 20

// hugeBytes is the alignment of mapped slabs, the 2 MB huge page.
const hugeBytes = 2 << 20

// heapSlabChunks is the size of a slab allocated with make when no
// mapping is available. It is allocated as chunks, so every chunk is
// word-aligned like the mapped ones.
const heapSlabChunks = 256

// mapSlab maps size bytes of zeroed host memory outside the Go heap,
// hugeBytes-aligned and advised for transparent huge pages, and returns
// it with the function that unmaps it. When it fails, as it always does
// on platforms without such mappings, slabs come from make. Tests swap it
// to exercise that fallback.
var mapSlab = platformMapSlab

// hostMapped is the HostMappedBytes gauge, updated on every map and unmap.
var hostMapped atomic.Int64

// HostMappedBytes returns how many bytes of address space the process
// holds mapped outside the Go heap for Phys and Words backing; only the
// huge pages chunks were carved from are resident. The Go runtime's memory
// statistics do not include them.
func HostMappedBytes() int64 { return hostMapped.Load() }

// host is the host memory a Phys, and the Words made from it, carve
// chunks and groups from and hand back as spares. It is its own object,
// holding no reference to the Phys, so that the Phys's cleanup can take
// it as argument. A Phys and its Words may be used from two goroutines,
// so carving and the spare list lock.
type host struct {
	mu sync.Mutex
	// slab is what is left to carve of the newest slab.
	//atlint:guardedby mu
	slab []chunk
	// unmaps holds one unmap function per mapped slab.
	//atlint:guardedby mu
	unmaps []func()
	// made holds the slabs that came from make. The groups that point
	// into them are not scanned by the garbage collector, so this is
	// what keeps them alive.
	//atlint:guardedby mu
	made [][]chunk
	// spare holds the chunks the stores carving from this host took out
	// of their directories: on a Reset, a superpage free or a re-layout.
	// Any of those stores takes them back, so the host holds about as
	// many chunks as its stores have had materialized at once, not the
	// sum of each store's own high-water mark. A spare keeps its
	// old contents; fresh clears one when it hands it out again, unless a
	// whole-chunk write is about to overwrite it, so a Reset costs a
	// directory scan, not a clear of everything the last unit touched.
	//atlint:guardedby mu
	spare []*chunk
}

// take returns a spare chunk, reporting true, or else a zeroed one carved
// from the current slab, starting a new slab when it runs out.
func (h *host) take() (*chunk, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.spare); n > 0 {
		c := h.spare[n-1]
		h.spare = h.spare[:n-1]
		return c, true
	}
	if len(h.slab) == 0 {
		if s, unmap, err := mapSlab(slabBytes); err == nil {
			// A mapped slab is hugeBytes-aligned outside the Go heap, so
			// viewing its bytes as chunks of words is safe.
			h.slab = unsafe.Slice((*chunk)(unsafe.Pointer(unsafe.SliceData(s))), len(s)/chunkBytes)
			h.unmaps = append(h.unmaps, unmap)
		} else {
			h.slab = make([]chunk, heapSlabChunks)
			h.made = append(h.made, h.slab)
		}
	}
	c := &h.slab[0]
	h.slab = h.slab[1:]
	return c, false
}

// reserve grows the spare list's capacity by n chunks.
func (h *host) reserve(n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.spare = slices.Grow(h.spare, int(n))
}

// put moves g's chunks onto the spare list and returns how many it moved.
func (h *host) put(g *group) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n uint64
	for i, c := range g {
		if c != nil {
			h.spare = append(h.spare, c)
			g[i] = nil
			n++
		}
	}
	return n
}

// putGroups moves the groups of spine, which must hold no chunk, onto the
// spare list: a group is one chunk in size.
func (h *host) putGroups(spine []*group) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, g := range spine {
		if g != nil {
			h.spare = append(h.spare, (*chunk)(unsafe.Pointer(g)))
		}
	}
}

// release unmaps every mapped slab. Slabs from make are left to the
// garbage collector.
func (h *host) release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, unmap := range h.unmaps {
		unmap()
	}
	h.slab, h.unmaps, h.made, h.spare = nil, nil, nil, nil
}
