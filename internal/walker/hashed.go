package walker

import (
	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/pagetable"
	"atscale/internal/telemetry"
)

// Hashed is the hardware walker for a hashed page table: one hash
// computation, then a short linear probe over 16-byte slots loaded
// through the cache hierarchy. There is no radix to descend and no
// paging-structure cache to consult, so translation latency is flat in
// the footprint — the property the paper's discussion wants from
// alternative page-table structures.
type Hashed struct {
	phys   *mem.Phys
	caches *cache.Hierarchy
	table  *pagetable.HashedTable

	// trk, when non-nil, receives one span per walk with a "hash" slice
	// for the hash computation and one "probe" slice per cluster load.
	trk   *telemetry.Track
	clock func() uint64
}

// hashCycles is the fixed cost of the hash computation preceding the
// first slot load.
const hashCycles = 3

// NewHashed builds a hashed-table walker.
func NewHashed(phys *mem.Phys, caches *cache.Hierarchy, table *pagetable.HashedTable) *Hashed {
	return &Hashed{phys: phys, caches: caches, table: table}
}

// EnableTrace implements Engine: one "walker" track.
func (h *Hashed) EnableTrace(p *telemetry.Process, clock func() uint64) {
	h.trk, h.clock = p.Track("walker"), clock
}

// Reset implements Engine: the table itself is rewound by the address
// space that owns it, so only the trace detaches.
func (h *Hashed) Reset() { h.trk, h.clock = nil, nil }

// Walk implements Engine. cr3 is unused: the walker addresses clusters
// through the table geometry (a real design would carry base and size in
// control registers).
func (h *Hashed) Walk(va arch.VAddr, _ arch.PAddr, budget uint64) Result {
	var r Result
	r.Cycles = hashCycles
	if h.trk != nil {
		h.trk.Sync(h.clock())
		h.trk.Begin(traceWalk)
		h.trk.Slice(traceHash, hashCycles, "", "")
	}
	if !h.table.Canonical(va) {
		r.Completed = true
		h.trk.EndArg(traceOutcome, outcomeFault)
		return r
	}
	group, tag, slot := pagetable.ClusterOf(arch.PageNumber(va, arch.Page4K))
	start := h.table.HashGroup(group)
	clusters := h.table.Clusters()
	for p := uint64(0); p < pagetable.MaxProbe; p++ {
		i := (start + p) & (clusters - 1)
		addr := h.table.ClusterAddr(i)
		// One cache access per cluster: tag and frames share the line.
		lat, loc := h.caches.Access(addr)
		r.Cycles += lat
		r.Loads++
		r.Locs[loc]++
		r.LeafLoc = loc
		if h.trk != nil {
			h.trk.Slice(traceProbe, lat, traceLocArg, locName(loc))
		}
		if r.Cycles > budget {
			h.trk.EndArg(traceOutcome, outcomeAbort)
			return r // aborted
		}
		switch h.phys.Read64(addr) {
		case tag:
			frame := h.phys.Read64(addr + slot)
			r.Completed = true
			if frame == 0 {
				h.trk.EndArg(traceOutcome, outcomeFault)
				return r // hole in the cluster: page fault
			}
			r.OK = true
			r.Frame = arch.PAddr(frame) &^ arch.PAddr(arch.Page4K.Mask())
			r.Size = arch.Page4K
			h.trk.EndArg(traceOutcome, outcomeOK)
			return r
		case 0: // empty cluster terminates the chain
			r.Completed = true
			h.trk.EndArg(traceOutcome, outcomeFault)
			return r
		}
		// Tombstone or other group: keep probing.
	}
	r.Completed = true
	h.trk.EndArg(traceOutcome, outcomeFault)
	return r
}

// Flush implements Engine (the hashed walker caches nothing).
func (h *Hashed) Flush() {}

// InvalidateBlock implements Engine (nothing cached).
func (h *Hashed) InvalidateBlock(arch.VAddr) {}
