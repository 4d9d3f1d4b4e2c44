// Package mem implements the simulated machine's physical memory: a frame
// allocator for all three x86-64 page sizes and a sparsely backed word
// store. Backing chunks are materialized lazily on first touch, so a guest
// may reserve far more physical memory than the host process ever commits
// (a 1 GB guest superpage costs host memory only for the chunks the
// workload actually writes).
//
// The 4 KB chunks are carved, in touch order, from host slabs mapped
// outside the Go heap, 2 MB-aligned and advised for transparent huge
// pages (slab_linux.go); elsewhere, or when mapping fails, slabs come from
// make. Host memory therefore grows in the 2 MB huge pages the carved
// chunks fall in, not chunk by chunk: a Phys that touched one chunk holds
// one 2 MB page. Mapped slabs are not garbage collected. Phys.Release
// unmaps them, and a cleanup does so for a Phys that becomes unreachable
// unreleased; HostMappedBytes gauges what is mapped. Words, the store of
// data kept outside simulated physical memory, is built the same way.
package mem

import (
	"fmt"
	"runtime"
	"slices"

	"atscale/internal/arch"
)

// chunkShift sizes the lazily allocated backing chunks (4 KB, matching the
// base page size so chunk boundaries never split a frame).
const chunkShift = arch.PageShift4K

// chunkBytes is the backing chunk size, chunkWords its 8-byte words.
const (
	chunkBytes = 1 << chunkShift
	chunkWords = chunkBytes / 8
)

// groupShift sizes the chunk directory's groups: 512 chunks (2 MB of
// physical address space) per group, so group boundaries coincide with
// 2 MB frame boundaries and superpage frees drop whole groups.
const groupShift = 9

// groupChunks / groupBytes derive the group geometry.
const (
	groupChunks = 1 << groupShift
	groupBytes  = groupChunks << chunkShift
)

// physBase is the first physical address handed out.
const physBase = arch.PhysBase

// Phys is the simulated physical memory. It is not safe for concurrent use;
// the machine model is single-core (the paper's per-core counters are what
// we reproduce).
//
// The backing store is a chunk directory indexed by physical address, so
// the walker-loop Read64 is two shifts and two array loads, never a map
// probe. The directory spine is sized from the configured limit at
// construction or Reconfigure (a 256 GB machine costs ~1 MB of nil group
// pointers) and groups materialize on first write.
type Phys struct {
	chunkDir

	limit    uint64 // total physical bytes available
	reserved uint64 // bytes handed out to allocations

	// nodes holds the per-NUMA-node allocators. A UMA machine has one
	// node spanning the whole address range, making its allocation
	// sequence byte-identical to the pre-NUMA single-allocator model.
	nodes []nodeAlloc

	// stride is the byte span of each node's region (0 with one node);
	// NodeOf divides by it.
	stride uint64

	// cleanup unmaps host when p becomes unreachable unreleased.
	cleanup runtime.Cleanup
}

// nodeAlloc is one NUMA node's frame allocator: a bump pointer over the
// node's region plus per-size free lists.
type nodeAlloc struct {
	start uint64 // first allocatable address of the region
	end   uint64 // one past the last allocatable address
	next  uint64 // bump pointer for fresh frames

	// free holds returned frames per page size.
	free [arch.NumPageSizes][]arch.PAddr
}

// NewPhys returns a UMA physical memory of the given capacity in bytes.
func NewPhys(limitBytes uint64) *Phys { return NewPhysNUMA(limitBytes, 1) }

// NewPhysNUMA returns a physical memory of the given capacity split into
// nodes equal NUMA node regions. Node regions are aligned so every node
// can hand out naturally aligned frames of any page size: the region
// stride is a 1 GB multiple when the capacity allows, 2 MB otherwise
// (1 GB frames then live on whichever node their alignment lands them).
func NewPhysNUMA(limitBytes uint64, nodes int) *Phys {
	p := &Phys{chunkDir: chunkDir{host: &host{}}}
	p.cleanup = runtime.AddCleanup(p, (*host).release, p.host)
	p.layout(limitBytes, nodes)
	return p
}

// layout lays p out as NewPhysNUMA(limitBytes, nodes) describes, with
// every frame free. The directory must hold no chunk.
func (p *Phys) layout(limitBytes uint64, nodes int) {
	if nodes < 1 {
		nodes = 1
	}
	var stride uint64
	if nodes > 1 {
		stride = arch.AlignDown(limitBytes/uint64(nodes), arch.Page1G.Bytes())
		if stride == 0 {
			stride = arch.AlignDown(limitBytes/uint64(nodes), groupBytes)
		}
		if stride == 0 {
			panic(fmt.Sprintf("mem: %s too small for %d NUMA nodes", arch.FormatBytes(limitBytes), nodes))
		}
	}
	p.resize((physBase + limitBytes + groupBytes - 1) >> (chunkShift + groupShift))
	p.limit, p.stride, p.reserved = limitBytes, stride, 0
	p.nodes = slices.Grow(p.nodes[:0], nodes)[:nodes]
	for i := range p.nodes {
		na := &p.nodes[i]
		na.start, na.end = uint64(i)*stride, uint64(i+1)*stride
		if i == 0 {
			na.start = physBase
		}
		if i == nodes-1 {
			na.end = physBase + limitBytes
		}
		na.next = na.start
		for ps := range na.free {
			na.free[ps] = na.free[ps][:0]
		}
	}
}

// Nodes returns the number of NUMA nodes (1 for UMA).
func (p *Phys) Nodes() int { return len(p.nodes) }

// NodeOf returns the NUMA node whose region holds pa.
func (p *Phys) NodeOf(pa arch.PAddr) int {
	if p.stride == 0 {
		return 0
	}
	n := int(uint64(pa) / p.stride)
	if n >= len(p.nodes) {
		n = len(p.nodes) - 1
	}
	return n
}

// AllocPage allocates one naturally aligned physical frame of the given
// page size on node 0 and returns its base address. The frame's contents
// are zero.
func (p *Phys) AllocPage(ps arch.PageSize) (arch.PAddr, error) {
	return p.AllocPageOnNode(ps, 0)
}

// AllocPageOnNode allocates one naturally aligned zeroed frame from the
// given NUMA node's region.
func (p *Phys) AllocPageOnNode(ps arch.PageSize, node int) (arch.PAddr, error) {
	p.checkLive()
	if node < 0 || node >= len(p.nodes) {
		return 0, fmt.Errorf("mem: no NUMA node %d (have %d)", node, len(p.nodes))
	}
	na := &p.nodes[node]
	if n := len(na.free[ps]); n > 0 {
		pa := na.free[ps][n-1]
		na.free[ps] = na.free[ps][:n-1]
		p.zeroRange(pa, ps.Bytes())
		return pa, nil
	}
	size := ps.Bytes()
	base := arch.AlignUp(na.next, size)
	if base+size > na.end {
		if len(p.nodes) > 1 {
			return 0, fmt.Errorf("mem: out of physical memory on node %d (limit %s, requested %s frame)",
				node, arch.FormatBytes(p.limit), ps)
		}
		return 0, fmt.Errorf("mem: out of physical memory (limit %s, requested %s frame)",
			arch.FormatBytes(p.limit), ps)
	}
	na.next = base + size
	p.reserved += size
	return arch.PAddr(base), nil
}

// FreePage returns a frame to the allocator (to the free list of the node
// whose region holds it). The caller must pass the same base address and
// page size that AllocPage returned.
func (p *Phys) FreePage(pa arch.PAddr, ps arch.PageSize) {
	p.checkLive()
	if !arch.IsAligned(uint64(pa), ps.Bytes()) {
		panic(fmt.Sprintf("mem: FreePage(%#x) misaligned for %s", uint64(pa), ps))
	}
	na := &p.nodes[p.NodeOf(pa)]
	na.free[ps] = append(na.free[ps], pa)
	// Drop backing for large frames so freed guest memory returns host
	// memory too.
	if ps != arch.Page4K {
		p.dropRange(pa, ps.Bytes())
	}
}

// ReservedBytes returns how many physical bytes are currently handed out
// (including frames on free lists, which remain reserved to their size
// class).
func (p *Phys) ReservedBytes() uint64 { return p.reserved }

// TouchedBytes returns how much backing store is materialized: the chunks
// written since construction or the last Reset, less those dropped with
// freed superpages.
func (p *Phys) TouchedBytes() uint64 { return p.touched << chunkShift }

// Reset returns the memory to its initial state — every frame free, the
// bump pointer back at physBase, every word zero — while keeping the
// materialized backing chunks as spares for the next tenant. Reuse is
// what makes campaign machine pooling cheap: the next run's working set
// lands on already-committed host memory instead of re-faulting it in.
// Reset only scans the directory; a spare is cleared when it is next
// written, so a chunk the next tenant never writes is never cleared.
// It is Reconfigure with p's own capacity and node count.
func (p *Phys) Reset() { p.Reconfigure(p.limit, len(p.nodes)) }

// Reconfigure leaves p as NewPhysNUMA(limitBytes, nodes) would build it,
// on the host memory p already holds: every touched chunk becomes a
// spare, as on Reset, and a directory spine of another length is
// replaced, its groups becoming spares too.
func (p *Phys) Reconfigure(limitBytes uint64, nodes int) {
	p.reset()
	p.layout(limitBytes, nodes)
}

// Release unmaps the host memory backing p. The Phys is unusable
// afterwards: any later use panics rather than touch unmapped memory.
// Release is idempotent.
func (p *Phys) Release() {
	if p.spine == nil {
		return
	}
	p.cleanup.Stop()
	p.release()
}

// Equal reports whether p and q are in the same state: capacity, NUMA
// layout, allocator state, which chunks are materialized and what they
// hold. Host slabs and spare chunks are not compared.
func (p *Phys) Equal(q *Phys) bool {
	p.checkLive()
	q.checkLive()
	if p.limit != q.limit || p.reserved != q.reserved || p.stride != q.stride ||
		len(p.nodes) != len(q.nodes) {
		return false
	}
	for i := range p.nodes {
		a, b := &p.nodes[i], &q.nodes[i]
		if a.start != b.start || a.end != b.end || a.next != b.next {
			return false
		}
		for ps := range a.free {
			if !slices.Equal(a.free[ps], b.free[ps]) {
				return false
			}
		}
	}
	return p.chunkDir.equal(&q.chunkDir)
}

// OnNode returns a Memory view of p whose AllocPage draws frames from
// the given NUMA node's region (page-table replica placement); accesses
// pass straight through. The view shares all state with p.
func (p *Phys) OnNode(node int) Memory {
	return &nodeView{p: p, node: node}
}

// nodeView is the node-pinned Memory adapter OnNode returns.
type nodeView struct {
	p    *Phys
	node int
}

func (v *nodeView) AllocPage(ps arch.PageSize) (arch.PAddr, error) {
	return v.p.AllocPageOnNode(ps, v.node)
}
func (v *nodeView) FreePage(pa arch.PAddr, ps arch.PageSize) { v.p.FreePage(pa, ps) }
func (v *nodeView) Read64(pa arch.PAddr) uint64              { return v.p.Read64(pa) }
func (v *nodeView) Write64(pa arch.PAddr, vv uint64)         { v.p.Write64(pa, vv) }

// Read64 loads the 8-byte word at pa, which must be 8-byte aligned.
//
//atlint:hotpath
func (p *Phys) Read64(pa arch.PAddr) uint64 { return p.read64(uint64(pa)) }

// Write64 stores an 8-byte word at pa, which must be 8-byte aligned.
func (p *Phys) Write64(pa arch.PAddr, v uint64) { p.write64(uint64(pa), v) }

// zeroRange clears [pa, pa+n) without materializing untouched chunks.
func (p *Phys) zeroRange(pa arch.PAddr, n uint64) {
	for off := uint64(0); off < n; off += chunkBytes {
		if c := p.peek(uint64(pa) + off); c != nil {
			clear(c[:])
		}
	}
}

// dropRange moves the backing chunks in [pa, pa+n) to the spare list.
// Callers pass naturally aligned superpage extents, so whole directory
// groups drop at once.
func (p *Phys) dropRange(pa arch.PAddr, n uint64) {
	for off := uint64(0); off < n; off += groupBytes {
		if g := p.spine[(uint64(pa)+off)>>(chunkShift+groupShift)]; g != nil {
			p.spill(g)
		}
	}
}
