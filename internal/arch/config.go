package arch

import "atscale/internal/assoc"

// TLBGeometry describes one TLB array.
type TLBGeometry struct {
	Entries int // total entries; 0 disables the array
	Ways    int // associativity; Ways == Entries means fully associative
}

// ReplacementPolicy selects a cache's victim-selection policy.
type ReplacementPolicy string

// Supported replacement policies.
const (
	// ReplaceLRU is true least-recently-used (the default).
	ReplaceLRU ReplacementPolicy = "lru"
	// ReplaceRandom evicts a pseudo-random way.
	ReplaceRandom ReplacementPolicy = "random"
	// ReplaceNRU is not-recently-used (one reference bit per line,
	// cleared in bulk when a set saturates) — the cheap hardware
	// approximation many LLCs ship.
	ReplaceNRU ReplacementPolicy = "nru"
)

// CacheGeometry describes one level of the data-cache hierarchy.
type CacheGeometry struct {
	SizeBytes int    // total capacity
	Ways      int    // associativity
	Latency   uint64 // load-to-use latency in cycles
	// Replacement selects the victim policy; empty means LRU.
	Replacement ReplacementPolicy
}

// CPUParams collects the timing and speculation parameters of the core
// model. They are deliberately coarse: the goal is a first-order model whose
// *relative* behaviour across footprints and page sizes matches hardware,
// not a cycle-accurate Haswell.
type CPUParams struct {
	// BaseCPI is the cycles charged per instruction for everything other
	// than memory stalls (issue bandwidth, ALU work, L1 hits).
	BaseCPI float64
	// STLBHitLatency is the extra lookup latency of an L2 TLB hit over an
	// L1 TLB hit (the paper cites 8 cycles on Haswell).
	STLBHitLatency uint64
	// STLBHitVisibility is the fraction of STLBHitLatency that shows up on
	// the critical path (OoO hides most of it).
	STLBHitVisibility float64
	// MemVisibility is the fraction of data-cache miss latency beyond L1
	// that shows up on the critical path.
	MemVisibility float64
	// WalkVisibility is the fraction of page-walk latency that shows up on
	// the critical path (walks serialize dependent loads; hard to hide).
	WalkVisibility float64
	// PipelineDepth is the minimum branch misprediction resolve latency.
	PipelineDepth uint64
	// IssueWidth bounds how many wrong-path micro-ops issue per cycle
	// during a speculation window.
	IssueWidth float64
	// MaxWrongPathAccesses caps the wrong-path memory accesses simulated
	// per misprediction episode (ROB-size bound).
	MaxWrongPathAccesses int
	// GsharePCBits sizes the branch predictor's history table (2^bits
	// two-bit counters).
	GsharePCBits uint
	// StoreBufferSize is how many recent stores are tracked for
	// memory-ordering / 4K-aliasing machine clears.
	StoreBufferSize int
	// ClearProbability is the probability that a detected 4K-aliasing or
	// ordering conflict escalates into a machine clear.
	ClearProbability float64
	// WrongPathNearFraction is the fraction of wrong-path addresses drawn
	// as strides off recent accesses; most of the rest revisit recent
	// addresses exactly.
	WrongPathNearFraction float64
	// WrongPathWildFraction is the small tail of wrong-path addresses
	// that are garbage pointers (walk, fault, suppressed).
	WrongPathWildFraction float64
	// WrongPathMaxStride bounds the byte offset applied to a recent
	// address when synthesizing a near wrong-path access.
	WrongPathMaxStride uint64
}

// PSCGeometry sizes the paging-structure caches (one per non-leaf level).
type PSCGeometry struct {
	PML5Entries int // caches PML5Es (5-level paging only), tagged by VA[56:48]
	PML4Entries int // caches PML4Es, tagged by VA[47:39]
	PDPTEntries int // caches PDPTEs, tagged by VA[47:30]
	PDEntries   int // caches PDEs, tagged by VA[47:21]
}

// VirtConfig configures nested paging (hardware-assisted virtualization):
// the machine's address space becomes a guest over a hypervisor's extended
// page tables, and every TLB miss takes a two-dimensional walk.
type VirtConfig struct {
	// Enabled turns virtualization on; the zero value is a native machine.
	Enabled bool
	// GuestPages is the guest OS heap mapping policy (the native machine's
	// page-size knob, restated per dimension).
	GuestPages PageSize
	// EPTPages is the hypervisor's EPT leaf size: every guest-physical
	// block is backed by a host frame of this size.
	EPTPages PageSize
	// NTLBEntries sizes the EPT translation cache (nTLB) that
	// short-circuits whole EPT walks for warm guest-physical pages.
	NTLBEntries int
	// EPTPSC sizes the EPT-dimension paging-structure caches.
	EPTPSC PSCGeometry
}

// DefaultVirt returns the nested-paging configuration used by the
// virtualization sweeps: 4 KB in both dimensions (the worst case the
// 24-load bound comes from), an nTLB of 32 entries, and EPT PSCs sized
// like the guest's.
func DefaultVirt() VirtConfig {
	return VirtConfig{
		Enabled:     true,
		GuestPages:  Page4K,
		EPTPages:    Page4K,
		NTLBEntries: 32,
		EPTPSC: PSCGeometry{
			PML4Entries: 2,
			PDPTEntries: 4,
			PDEntries:   24,
		},
	}
}

// NUMAConfig adds a NUMA node dimension to the simulated machine:
// physical memory splits into per-node regions, walker PTE loads that
// reach DRAM on a remote node pay an extra latency, and the core
// migrates between nodes on a deterministic round-robin schedule. The
// zero value is a UMA machine, byte-identical to the pre-NUMA model.
type NUMAConfig struct {
	// Nodes is the number of NUMA nodes; 0 or 1 means UMA.
	Nodes int
	// RemoteLatency is the extra cycle cost of a DRAM access homed on a
	// node other than the accessing core's; 0 selects the default.
	RemoteLatency uint64
	// MigrateEvery is the number of retired memory accesses between
	// deterministic round-robin node migrations; 0 selects the default.
	MigrateEvery uint64
}

// Default NUMA parameters: the remote-access penalty approximates one
// QPI hop on the modelled Haswell-EP (≈60 ns at 2.5 GHz over the local
// ≈85 ns), and the migration period keeps several migrations inside a
// typical measured region without dominating it.
const (
	DefaultNUMARemoteLatency = 150
	DefaultNUMAMigrateEvery  = 200_000
	// MaxNUMANodes bounds Nodes in Validate (the model is single-core;
	// nodes beyond a few sockets have no modelled meaning).
	MaxNUMANodes = 8
)

// EffectiveNodes returns the node count with the UMA zero value
// normalized to 1. Callers must use this instead of Nodes so the zero
// value stays untouched in the config struct — struct equality keys the
// campaign machine pool.
func (n NUMAConfig) EffectiveNodes() int {
	if n.Nodes < 1 {
		return 1
	}
	return n.Nodes
}

// EffectiveRemoteLatency returns the remote-DRAM penalty with the zero
// value defaulted.
func (n NUMAConfig) EffectiveRemoteLatency() uint64 {
	if n.RemoteLatency == 0 {
		return DefaultNUMARemoteLatency
	}
	return n.RemoteLatency
}

// EffectiveMigrateEvery returns the migration period with the zero
// value defaulted.
func (n NUMAConfig) EffectiveMigrateEvery() uint64 {
	if n.MigrateEvery == 0 {
		return DefaultNUMAMigrateEvery
	}
	return n.MigrateEvery
}

// Die-stacked DRAM cache defaults (SchemeParams), loosely HBM-class
// against the baseline DRAMLatency of 210 cycles.
const (
	DefaultDRAMCacheBytes       = 1 << 30 // 1 GB stacked die
	DefaultDRAMCacheHitLatency  = 60      // stacked-die access, cycles
	DefaultDRAMCacheMissPenalty = 25      // tag check before going off-package
)

// SchemeParams tunes the non-radix translation-scheme backends
// (internal/scheme). Zero values select per-scheme defaults; like
// NUMAConfig, the zero value must stay zero in the struct so pool
// keying by struct equality keeps working.
type SchemeParams struct {
	// VictimaEntries sizes the Victima PTE-block directory (number of
	// cached PTE blocks).
	VictimaEntries int
	// DRAMCacheBytes sizes the die-stacked DRAM cache.
	DRAMCacheBytes uint64
	// DRAMCacheHitLatency is the access latency of a DRAM-cache hit
	// (replacing the off-package DRAM latency).
	DRAMCacheHitLatency uint64
	// DRAMCacheMissPenalty is the extra latency of probing the DRAM
	// cache and missing, on top of the off-package DRAM access.
	DRAMCacheMissPenalty uint64
}

// EffectiveDRAMCacheBytes returns DRAMCacheBytes, its zero value
// normalized to DefaultDRAMCacheBytes.
func (p SchemeParams) EffectiveDRAMCacheBytes() uint64 {
	if p.DRAMCacheBytes == 0 {
		return DefaultDRAMCacheBytes
	}
	return p.DRAMCacheBytes
}

// EffectiveDRAMCacheHitLatency returns DRAMCacheHitLatency, its zero
// value normalized to DefaultDRAMCacheHitLatency.
func (p SchemeParams) EffectiveDRAMCacheHitLatency() uint64 {
	if p.DRAMCacheHitLatency == 0 {
		return DefaultDRAMCacheHitLatency
	}
	return p.DRAMCacheHitLatency
}

// EffectiveDRAMCacheMissPenalty returns DRAMCacheMissPenalty, its zero
// value normalized to DefaultDRAMCacheMissPenalty.
func (p SchemeParams) EffectiveDRAMCacheMissPenalty() uint64 {
	if p.DRAMCacheMissPenalty == 0 {
		return DefaultDRAMCacheMissPenalty
	}
	return p.DRAMCacheMissPenalty
}

// SystemConfig describes the whole simulated machine. The zero value is not
// usable; start from DefaultSystem().
type SystemConfig struct {
	// Name labels the configuration in reports.
	Name string

	// L1TLB holds the first-level TLB geometry per page size
	// (indexed by PageSize).
	L1TLB [NumPageSizes]TLBGeometry
	// STLB is the unified second-level TLB shared by 4 KB and 2 MB
	// translations. 1 GB translations are not cached in the STLB
	// (as on Haswell).
	STLB TLBGeometry
	// STLBHolds1G selects whether 1 GB entries may live in the STLB.
	STLBHolds1G bool

	// PagingLevels selects 4-level (48-bit VA) or 5-level (LA57, 57-bit
	// VA) radix page tables.
	PagingLevels int

	// PageTable selects the page-table organization: "radix" (default,
	// x86-64) or "hashed" (the alternative-structure extension; 4 KB
	// heap policy only, paging-structure caches unused).
	PageTable string

	// PSC sizes the paging-structure caches.
	PSC PSCGeometry

	// Scheme selects the translation-scheme backend (internal/scheme):
	// "" or "radix" (default; byte-identical to the hard-wired walker),
	// "victima", "mitosis", or "dramcache". The non-radix schemes pair
	// with native radix machines only: Validate rejects them on
	// nested-paging or hashed machines.
	Scheme string

	// NUMA configures the NUMA node dimension; the zero value is UMA.
	NUMA NUMAConfig

	// SchemeParams tunes the non-radix scheme backends; zero values pick
	// per-scheme defaults.
	SchemeParams SchemeParams

	// TLBPrefetchNextPage enables the research-extension next-page TLB
	// prefetcher: each demand walk for page P also walks P+1 and
	// installs the result into the STLB (Vavouliotis et al. style
	// sequential TLB prefetching).
	TLBPrefetchNextPage bool

	// L1D, L2, L3 describe the data-cache hierarchy the walker and demand
	// accesses share.
	L1D, L2, L3 CacheGeometry
	// DRAMLatency is the cycle cost of a miss in all cache levels.
	DRAMLatency uint64

	// PhysMemBytes bounds the simulated physical memory.
	PhysMemBytes uint64

	// Virt configures nested paging; the zero value is a native machine.
	Virt VirtConfig

	// CPU holds the core timing/speculation parameters.
	CPU CPUParams
}

// DefaultSystem returns the simulated equivalent of the paper's Table III
// machine: one socket's worth of an Intel Xeon E5-2680 v3 (Haswell-EP)
// memory system.
//
// TLB and cache geometry follow Table III; the paging-structure-cache sizes
// follow the RevAnC reverse-engineering of Haswell; latencies follow the
// 7-cpu Haswell tables the paper cites.
func DefaultSystem() SystemConfig {
	return SystemConfig{
		Name: "haswell-ep-sim",
		L1TLB: [NumPageSizes]TLBGeometry{
			Page4K: {Entries: 64, Ways: 4},
			Page2M: {Entries: 32, Ways: 4},
			Page1G: {Entries: 4, Ways: 4}, // fully associative
		},
		STLB:         TLBGeometry{Entries: 1024, Ways: 8},
		STLBHolds1G:  false,
		PagingLevels: 4,
		PSC: PSCGeometry{
			PML5Entries: 2,
			PML4Entries: 2,
			PDPTEntries: 4,
			PDEntries:   24,
		},
		L1D:          CacheGeometry{SizeBytes: 32 * KB, Ways: 8, Latency: 4},
		L2:           CacheGeometry{SizeBytes: 256 * KB, Ways: 8, Latency: 12},
		L3:           CacheGeometry{SizeBytes: 30 * MB, Ways: 20, Latency: 38},
		DRAMLatency:  210,
		PhysMemBytes: 64 * GB,
		CPU: CPUParams{
			BaseCPI:               0.45,
			STLBHitLatency:        8,
			STLBHitVisibility:     0.25,
			MemVisibility:         0.35,
			WalkVisibility:        0.75,
			PipelineDepth:         16,
			IssueWidth:            1.0,
			MaxWrongPathAccesses:  48,
			GsharePCBits:          14,
			StoreBufferSize:       42,
			ClearProbability:      0.03,
			WrongPathNearFraction: 0.988,
			WrongPathWildFraction: 0.002,
			WrongPathMaxStride:    4 * KB,
		},
	}
}

// Validate reports configuration errors that would make the simulated
// machine unbuildable (zero ways, non-power-of-two set counts, etc.).
func (c *SystemConfig) Validate() error {
	for ps := Page4K; ps < NumPageSizes; ps++ {
		// The name is built only for the error: Validate runs once per
		// pooled unit and allocates nothing on success.
		if c.L1TLB[ps].validate("L1TLB") != nil {
			return c.L1TLB[ps].validate("L1TLB[" + ps.String() + "]")
		}
	}
	if err := c.STLB.validate("STLB"); err != nil {
		return err
	}
	if err := c.PSC.validate("PSC"); err != nil {
		return err
	}
	if c.PhysMemBytes < GB {
		return errf("PhysMemBytes %d too small (need >= 1GB)", c.PhysMemBytes)
	}
	// Every physical line must have a set-relative tag below the caches'
	// empty-way sentinel at every level. PhysBase is line-aligned, so
	// the sum below is the last line and cannot overflow.
	lastLine := PhysBase/CacheLineSize + (c.PhysMemBytes-1)/CacheLineSize
	for _, cg := range []struct {
		name string
		g    CacheGeometry
	}{{"L1D", c.L1D}, {"L2", c.L2}, {"L3", c.L3}} {
		if err := cg.g.validate(cg.name); err != nil {
			return err
		}
		if sets := uint64(cg.g.SizeBytes / CacheLineSize / cg.g.Ways); lastLine/sets >= CacheTagLimit {
			return errf("%s: PhysMemBytes %d too large for 32-bit tags over %d sets (need <= %d)",
				cg.name, c.PhysMemBytes, sets, CacheTagLimit*sets*CacheLineSize-PhysBase)
		}
	}
	if c.DRAMLatency == 0 {
		return errf("DRAMLatency must be positive")
	}
	if c.CPU.BaseCPI <= 0 {
		return errf("CPU.BaseCPI must be positive")
	}
	if c.CPU.IssueWidth <= 0 {
		return errf("CPU.IssueWidth must be positive")
	}
	if c.PagingLevels != 4 && c.PagingLevels != 5 {
		return errf("PagingLevels must be 4 or 5, got %d", c.PagingLevels)
	}
	switch c.PageTable {
	case "", "radix", "hashed":
	default:
		return errf("PageTable must be \"radix\" or \"hashed\", got %q", c.PageTable)
	}
	if c.PageTable == "hashed" && c.PagingLevels != 4 {
		return errf("hashed page tables pair with PagingLevels=4")
	}
	// Scheme *names* are validated by the scheme registry at machine
	// construction (the registry is the single source of truth); the
	// config layer rejects combinations no scheme can support and the
	// parameters a named scheme cannot build with.
	if c.Scheme != "" && c.Scheme != "radix" {
		if c.Virt.Enabled {
			return errf("translation scheme %q pairs with native (non-virtualized) machines", c.Scheme)
		}
		if c.PageTable == "hashed" {
			return errf("translation scheme %q pairs with radix page tables", c.Scheme)
		}
	}
	switch p := c.SchemeParams; c.Scheme {
	case "mitosis":
		if c.NUMA.EffectiveNodes() < 2 {
			return errf("mitosis requires NUMA.Nodes >= 2 (got %d); pass -numa-nodes", c.NUMA.Nodes)
		}
	case "victima":
		if p.VictimaEntries < 0 {
			return errf("victima: VictimaEntries must be >= 0, got %d", p.VictimaEntries)
		}
	case "dramcache":
		if p.EffectiveDRAMCacheBytes() < Page4K.Bytes() {
			return errf("dramcache: DRAMCacheBytes must be >= 4096, got %d", p.DRAMCacheBytes)
		}
		if hit := p.EffectiveDRAMCacheHitLatency(); hit >= c.DRAMLatency {
			return errf("dramcache: hit latency %d must beat DRAMLatency %d", hit, c.DRAMLatency)
		}
	}
	if c.NUMA.Nodes < 0 || c.NUMA.Nodes > MaxNUMANodes {
		return errf("NUMA.Nodes must be in [0, %d], got %d", MaxNUMANodes, c.NUMA.Nodes)
	}
	if c.NUMA.Nodes > 1 {
		if c.Virt.Enabled {
			return errf("NUMA pairs with native (non-virtualized) machines")
		}
		if c.PageTable == "hashed" {
			return errf("NUMA pairs with radix page tables")
		}
		if c.PhysMemBytes/uint64(c.NUMA.Nodes) < GB {
			return errf("PhysMemBytes %d too small for %d NUMA nodes (need >= 1GB per node)",
				c.PhysMemBytes, c.NUMA.Nodes)
		}
	}
	if c.Virt.Enabled {
		if c.PagingLevels != 4 {
			return errf("virtualization pairs with PagingLevels=4")
		}
		if c.PageTable == "hashed" {
			return errf("virtualization pairs with radix page tables")
		}
		if c.Virt.GuestPages >= NumPageSizes {
			return errf("Virt.GuestPages: invalid page size %d", c.Virt.GuestPages)
		}
		if c.Virt.EPTPages >= NumPageSizes {
			return errf("Virt.EPTPages: invalid page size %d", c.Virt.EPTPages)
		}
		if c.Virt.NTLBEntries <= 0 || c.Virt.NTLBEntries > assoc.MaxWays {
			return errf("Virt.NTLBEntries must be in [1, %d] when virtualized, got %d", assoc.MaxWays, c.Virt.NTLBEntries)
		}
		if err := c.Virt.EPTPSC.validate("Virt.EPTPSC"); err != nil {
			return err
		}
	}
	return nil
}

func (g TLBGeometry) validate(name string) error {
	if g.Entries == 0 {
		return nil // disabled array is legal
	}
	if g.Ways <= 0 || g.Entries%g.Ways != 0 {
		return errf("%s: entries %d not divisible by ways %d", name, g.Entries, g.Ways)
	}
	if g.Ways > assoc.MaxWays {
		return errf("%s: %d ways exceed %d", name, g.Ways, assoc.MaxWays)
	}
	return nil
}

// validate checks that every level's cache is one set of 0 to
// assoc.MaxWays entries.
func (g PSCGeometry) validate(name string) error {
	for _, l := range []struct {
		name    string
		entries int
	}{{"PML5Entries", g.PML5Entries}, {"PML4Entries", g.PML4Entries}, {"PDPTEntries", g.PDPTEntries}, {"PDEntries", g.PDEntries}} {
		if l.entries < 0 || l.entries > assoc.MaxWays {
			return errf("%s.%s must be in [0, %d], got %d", name, l.name, assoc.MaxWays, l.entries)
		}
	}
	return nil
}

func (g CacheGeometry) validate(name string) error {
	if g.SizeBytes <= 0 || g.Ways <= 0 {
		return errf("%s: size and ways must be positive", name)
	}
	lines := g.SizeBytes / CacheLineSize
	if g.SizeBytes%CacheLineSize != 0 || lines%g.Ways != 0 {
		return errf("%s: size %d not divisible into %d-way line sets", name, g.SizeBytes, g.Ways)
	}
	if g.Latency == 0 {
		return errf("%s: latency must be positive", name)
	}
	switch g.Replacement {
	case "", ReplaceLRU, ReplaceRandom, ReplaceNRU:
	default:
		return errf("%s: unknown replacement policy %q", name, g.Replacement)
	}
	return nil
}
