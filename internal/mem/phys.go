// Package mem implements the simulated machine's physical memory: a frame
// allocator for all three x86-64 page sizes and a sparsely backed byte
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
// unreleased; HostMappedBytes gauges what is mapped.
package mem

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"

	"atscale/internal/arch"
)

// chunkShift sizes the lazily allocated backing chunks (4 KB, matching the
// base page size so chunk boundaries never split a frame).
const chunkShift = arch.PageShift4K

// chunkBytes is the backing chunk size.
const chunkBytes = 1 << chunkShift

// groupShift sizes the chunk directory's groups: 512 chunks (2 MB of
// physical address space) per group, so group boundaries coincide with
// 2 MB frame boundaries and superpage frees drop whole groups.
const groupShift = 9

// groupChunks / groupBytes derive the group geometry.
const (
	groupChunks = 1 << groupShift
	groupBytes  = groupChunks << chunkShift
)

// physBase is the first physical address handed out. Leaving page zero
// unused catches null-physical-address bugs in the page-table code.
const physBase = 1 << arch.PageShift4K

// group is one 2 MB span of the chunk directory: direct-indexed chunk
// pointers plus a count of materialized chunks (so dropping the group
// adjusts the touched telemetry without a scan).
type group struct {
	chunk [groupChunks]*[chunkBytes]byte
	live  uint32
}

// Phys is the simulated physical memory. It is not safe for concurrent use;
// the machine model is single-core (the paper's per-core counters are what
// we reproduce).
//
// The backing store is a two-level direct-indexed directory — physical
// address → group → chunk — so the walker-loop Read64 is two shifts and
// two array loads, never a map probe. The directory spine is sized from
// the configured limit at construction (a 256 GB machine costs ~1 MB of
// nil group pointers) and groups materialize on first write.
type Phys struct {
	limit    uint64 // total physical bytes available
	reserved uint64 // bytes handed out to allocations

	// nodes holds the per-NUMA-node allocators. A UMA machine has one
	// node spanning the whole address range, making its allocation
	// sequence byte-identical to the pre-NUMA single-allocator model.
	nodes []nodeAlloc

	// stride is the byte span of each node's region (0 with one node);
	// NodeOf divides by it.
	stride uint64

	// dir is the chunk directory spine, indexed by pa >> (chunkShift +
	// groupShift). Entries are nil until a chunk in the group is written.
	// Release sets it to nil, which marks p released.
	//
	//atlint:noreset Reset empties the groups but keeps the spine; only Release drops it, for good
	dir []*group

	// spare holds chunks a Reset or a superpage free took out of the
	// directory. They keep their old contents; chunk clears one when it
	// hands it out again, so a Reset costs a directory scan, not a clear
	// of everything the last unit touched.
	spare []*[chunkBytes]byte

	// host owns the slabs chunks are carved from.
	host *host

	// cleanup unmaps host when p becomes unreachable unreleased.
	cleanup runtime.Cleanup

	// touched counts the chunks materialized in the directory.
	touched uint64
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
	if nodes < 1 {
		nodes = 1
	}
	p := &Phys{
		limit: limitBytes,
		dir:   make([]*group, (physBase+limitBytes+groupBytes-1)>>(chunkShift+groupShift)),
		host:  &host{},
	}
	p.cleanup = runtime.AddCleanup(p, (*host).release, p.host)
	if nodes == 1 {
		p.nodes = []nodeAlloc{{start: physBase, end: physBase + limitBytes, next: physBase}}
		return p
	}
	stride := arch.AlignDown(limitBytes/uint64(nodes), arch.Page1G.Bytes())
	if stride == 0 {
		stride = arch.AlignDown(limitBytes/uint64(nodes), groupBytes)
	}
	if stride == 0 {
		panic(fmt.Sprintf("mem: %s too small for %d NUMA nodes", arch.FormatBytes(limitBytes), nodes))
	}
	p.stride = stride
	p.nodes = make([]nodeAlloc, nodes)
	for i := range p.nodes {
		start := uint64(i) * stride
		if i == 0 {
			start = physBase
		}
		end := uint64(i+1) * stride
		if i == nodes-1 {
			end = physBase + limitBytes
		}
		p.nodes[i] = nodeAlloc{start: start, end: end, next: start}
	}
	return p
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
func (p *Phys) Reset() {
	p.checkLive()
	for _, g := range p.dir {
		if g != nil {
			p.spill(g)
		}
	}
	p.touched = 0
	for i := range p.nodes {
		na := &p.nodes[i]
		for ps := range na.free {
			na.free[ps] = na.free[ps][:0]
		}
		na.next = na.start
	}
	p.reserved = 0
}

// Release unmaps the host memory backing p. The Phys is unusable
// afterwards: any later use panics rather than touch unmapped memory.
// Release is idempotent.
func (p *Phys) Release() {
	if p.dir == nil {
		return
	}
	p.cleanup.Stop()
	p.host.release()
	p.dir, p.spare, p.touched = nil, nil, 0
}

// Equal reports whether p and q are in the same state: capacity, NUMA
// layout, allocator state, which chunks are materialized and what they
// hold. Host slabs and spare chunks are not compared.
func (p *Phys) Equal(q *Phys) bool {
	p.checkLive()
	q.checkLive()
	if p.limit != q.limit || p.reserved != q.reserved || p.stride != q.stride ||
		p.touched != q.touched || len(p.nodes) != len(q.nodes) || len(p.dir) != len(q.dir) {
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
	var empty group
	for gi, g := range p.dir {
		h := q.dir[gi]
		if g == nil && h == nil {
			continue
		}
		if g == nil {
			g = &empty
		}
		if h == nil {
			h = &empty
		}
		for i, c := range &g.chunk {
			d := h.chunk[i]
			if (c == nil) != (d == nil) || c != nil && *c != *d {
				return false
			}
		}
	}
	return true
}

// checkLive panics if p was released.
func (p *Phys) checkLive() {
	if p.dir == nil {
		panic("mem: use of a released Phys")
	}
}

// spill moves g's chunks onto the spare list.
func (p *Phys) spill(g *group) {
	if g.live == 0 {
		return
	}
	for i, c := range &g.chunk {
		if c != nil {
			p.spare = append(p.spare, c)
			g.chunk[i] = nil
		}
	}
	p.touched -= uint64(g.live)
	g.live = 0
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
func (v *nodeView) CopyRange(dst, src arch.PAddr, n uint64)  { v.p.CopyRange(dst, src, n) }

// chunk returns the backing slice for pa, materializing it if needed: a
// spare chunk cleared now, or a fresh one carved from the host slab.
func (p *Phys) chunk(pa arch.PAddr) *[chunkBytes]byte {
	p.checkLive()
	cn := uint64(pa) >> chunkShift
	gi := cn >> groupShift
	g := p.dir[gi]
	if g == nil {
		g = &group{}
		p.dir[gi] = g
	}
	c := g.chunk[cn&(groupChunks-1)]
	if c == nil {
		if n := len(p.spare); n > 0 {
			c = p.spare[n-1]
			p.spare = p.spare[:n-1]
			clear(c[:])
		} else {
			c = p.host.carve()
		}
		g.chunk[cn&(groupChunks-1)] = c
		g.live++
		p.touched++
	}
	return c
}

// peek returns the backing slice for pa without materializing it (nil if
// the chunk was never touched).
func (p *Phys) peek(pa arch.PAddr) *[chunkBytes]byte {
	cn := uint64(pa) >> chunkShift
	gi := cn >> groupShift
	if gi >= uint64(len(p.dir)) {
		// A released Phys has no directory, so every read lands here and
		// the check costs the in-range path nothing.
		p.checkLive()
		return nil
	}
	g := p.dir[gi]
	if g == nil {
		return nil
	}
	return g.chunk[cn&(groupChunks-1)]
}

// Read64 loads the 8-byte word at pa, which must be 8-byte aligned.
//
//atlint:hotpath
func (p *Phys) Read64(pa arch.PAddr) uint64 {
	if pa&7 != 0 {
		panic(fmt.Sprintf("mem: unaligned Read64(%#x)", uint64(pa)))
	}
	c := p.peek(pa)
	if c == nil {
		return 0 // untouched memory reads as zero
	}
	off := uint64(pa) & (chunkBytes - 1)
	return binary.LittleEndian.Uint64(c[off : off+8])
}

// Write64 stores an 8-byte word at pa, which must be 8-byte aligned.
func (p *Phys) Write64(pa arch.PAddr, v uint64) {
	if pa&7 != 0 {
		panic(fmt.Sprintf("mem: unaligned Write64(%#x)", uint64(pa)))
	}
	c := p.chunk(pa)
	off := uint64(pa) & (chunkBytes - 1)
	binary.LittleEndian.PutUint64(c[off:off+8], v)
}

// WriteWords stores ws as consecutive 8-byte words from pa, which must be
// 8-byte aligned. The run must stay inside one 4 KB chunk, so it costs one
// chunk-directory lookup however long it is.
func (p *Phys) WriteWords(pa arch.PAddr, ws []uint64) {
	off := uint64(pa) & (chunkBytes - 1)
	if pa&7 != 0 || uint64(len(ws)) > (chunkBytes-off)/8 {
		panic(fmt.Sprintf("mem: WriteWords(%#x) of %d words leaves its 4 KB chunk or is unaligned", uint64(pa), len(ws)))
	}
	if len(ws) == 0 {
		return
	}
	b := p.chunk(pa)[off : off+8*uint64(len(ws))]
	for i, w := range ws {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
}

// CopyRange copies n bytes from src to dst (both chunk-aligned, n a
// multiple of the chunk size). Untouched source chunks are skipped — the
// destination reads as zero there anyway.
func (p *Phys) CopyRange(dst, src arch.PAddr, n uint64) {
	if !arch.IsAligned(uint64(dst), chunkBytes) || !arch.IsAligned(uint64(src), chunkBytes) ||
		!arch.IsAligned(n, chunkBytes) {
		panic(fmt.Sprintf("mem: misaligned CopyRange(%#x, %#x, %d)", uint64(dst), uint64(src), n))
	}
	for off := uint64(0); off < n; off += chunkBytes {
		s := p.peek(src + arch.PAddr(off))
		if s == nil {
			continue
		}
		copy(p.chunk(dst + arch.PAddr(off))[:], s[:])
	}
}

// zeroRange clears [pa, pa+n) without materializing untouched chunks.
func (p *Phys) zeroRange(pa arch.PAddr, n uint64) {
	for off := uint64(0); off < n; off += chunkBytes {
		if c := p.peek(pa + arch.PAddr(off)); c != nil {
			clear(c[:])
		}
	}
}

// dropRange moves the backing chunks in [pa, pa+n) to the spare list.
// Callers pass naturally aligned superpage extents, so whole directory
// groups drop at once.
func (p *Phys) dropRange(pa arch.PAddr, n uint64) {
	for off := uint64(0); off < n; off += groupBytes {
		if g := p.dir[(uint64(pa)+off)>>(chunkShift+groupShift)]; g != nil {
			p.spill(g)
		}
	}
}
