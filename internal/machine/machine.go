// Package machine assembles the full simulated system — physical memory,
// page tables, TLBs, paging-structure caches, walker, caches, core, and
// the guest OS — behind the small API workloads program against: Malloc,
// Load64/Store64, Ops, and Branch.
//
// Data really lives in simulated physical memory: a Load64 translates the
// virtual address through the simulated MMU (faulting the page in on first
// touch) and reads the word from the translated physical location. The
// workloads are therefore genuinely data-dependent on the simulated memory
// system, which is what lets access-pattern effects (filtering, PTE
// hotness) emerge rather than being scripted.
package machine

import (
	"fmt"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/cpu"
	"atscale/internal/mem"
	"atscale/internal/pagetable"
	"atscale/internal/perf"
	"atscale/internal/scheme"
	"atscale/internal/telemetry"
	"atscale/internal/tlb"
	"atscale/internal/virt"
	"atscale/internal/vm"
	"atscale/internal/walker"
)

// Machine is one simulated single-core system running one process.
type Machine struct {
	cfg    arch.SystemConfig
	phys   *mem.Phys
	as     *vm.AddrSpace
	core   *cpu.Core
	engine walker.Engine

	// migr, when non-nil, drives the deterministic NUMA thread-migration
	// schedule through the engine.
	migr *migrateState

	// Virtualization layer (nil on native machines). All tenants share
	// hyp's EPT; as always aliases tenants[tenant].
	hyp     *virt.Hypervisor
	gphys   *virt.GuestPhys
	tenants []*vm.AddrSpace
	tenant  int

	// quiet-access translation cache (setup-phase fast path): a
	// direct-mapped software TLB at 4 KB granularity, indexed by page
	// number. quietPage holds each slot's page base (quietInvalidPage
	// when empty) and quietFrame the matching physical frame base.
	quietPage [quietSlots]arch.VAddr
	//atlint:noreset stale frames cannot match: quietInvalidate (run by Renew) poisons every quietPage sentinel first
	quietFrame [quietSlots]arch.PAddr

	// promo, when non-nil, is the WCPI-guided hugepage promotion policy.
	promo *promoState

	// tracer, when non-nil, observes the workload-visible event stream.
	tracer Tracer

	// sampler is the lazily created user-facing PEBS-style sampler.
	sampler *perf.Sampler

	// interval, when non-nil, streams counter rows every N retired
	// instructions (perf stat -I keyed on instruction count).
	interval *perf.IntervalReader

	// phaseTrk, when non-nil, is the timeline track receiving the
	// workload phase spans (setup / prefault / steady); prefaults counts
	// quietly materialized pages for the phase-boundary counter sample.
	phaseTrk  *telemetry.Track
	prefaults uint64
	// traceProc is the machine's timeline process (nil untraced); the
	// refute checker pins identity violations onto its `refute` track.
	traceProc *telemetry.Process
}

// Tracer observes every workload-level event the machine executes, in
// order — the capture side of trace record/replay. Implementations must
// not call back into the machine.
type Tracer interface {
	// Load observes a retired load of va.
	Load(va arch.VAddr)
	// Store observes a retired store to va.
	Store(va arch.VAddr)
	// Ops observes n non-memory instructions.
	Ops(n uint64)
	// Branch observes a branch at pc with its outcome.
	Branch(pc uint64, taken bool)
	// Malloc observes an allocation and the address it returned.
	Malloc(va arch.VAddr, n uint64)
	// Prefault observes a page quietly materialized during setup.
	Prefault(page arch.VAddr)
}

// SetTracer installs (or, with nil, removes) the event tracer.
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// Prefault quietly maps the page containing va (replay of a recorded
// setup-phase materialization).
func (m *Machine) Prefault(va arch.VAddr) { m.quietTranslate(va) }

// New builds a machine from cfg whose heap is backed with the given page
// size policy. seed fixes all randomized model decisions.
func New(cfg arch.SystemConfig, policy arch.PageSize, seed int64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	m := &Machine{cfg: cfg}
	m.quietInvalidate()
	m.phys = mem.NewPhysNUMA(cfg.PhysMemBytes, cfg.NUMA.EffectiveNodes())
	caches := cache.NewHierarchy(&m.cfg)

	var as *vm.AddrSpace
	var engine walker.Engine
	var err error
	if cfg.Virt.Enabled {
		// Nested paging: the machine's address space becomes a guest. Its
		// page tables are built in guest-physical memory, so the walker
		// must cross into the EPT dimension to resolve every guest level.
		// The policy argument is the guest OS heap policy; keep the config
		// mirror coherent for reports.
		m.cfg.Virt.GuestPages = policy
		hyp, herr := virt.NewHypervisor(m.phys, cfg.Virt.EPTPages)
		if herr != nil {
			return nil, fmt.Errorf("machine: %w", herr)
		}
		m.hyp = hyp
		m.gphys = virt.NewGuestPhys(hyp, cfg.PhysMemBytes)
		pt, perr := pagetable.New(m.gphys)
		if perr != nil {
			return nil, fmt.Errorf("machine: %w", perr)
		}
		as, err = vm.NewAddrSpaceTables(m.gphys, policy, pt)
		engine = walker.NewNested(m.phys, hyp.Root(), m.cfg.PSC, m.cfg.Virt, caches)
	} else if cfg.PageTable == "hashed" {
		if policy != arch.Page4K {
			return nil, fmt.Errorf("machine: hashed page tables support the 4KB policy only, got %s", policy)
		}
		ht, herr := pagetable.NewHashed(m.phys, 1<<17)
		if herr != nil {
			return nil, fmt.Errorf("machine: %w", herr)
		}
		as, err = vm.NewAddrSpaceTables(m.phys, policy, ht)
		engine = walker.NewHashed(m.phys, caches, ht)
	} else {
		// Native radix machines go through the translation-scheme seam:
		// the configured scheme builds the walk engine over the shared
		// physical memory and data-cache hierarchy.
		sch, serr := scheme.ByName(cfg.Scheme)
		if serr != nil {
			return nil, fmt.Errorf("machine: %w", serr)
		}
		as, err = vm.NewAddrSpaceDepth(m.phys, policy, cfg.PagingLevels)
		if err == nil {
			engine, err = sch.Build(scheme.Deps{Cfg: &m.cfg, Phys: m.phys, Caches: caches})
		}
	}
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	m.as = as
	m.engine = engine
	tlbs := tlb.NewHierarchy(&m.cfg)
	m.core = cpu.New(&m.cfg, tlbs, caches, engine, seed)
	m.core.SetAddressSpace(as.PageTable().Root(), m.faultHandler(as))
	if m.hyp != nil {
		m.tenants = []*vm.AddrSpace{as}
	}
	if mg, ok := engine.(scheme.Migratory); ok && cfg.NUMA.EffectiveNodes() > 1 {
		every := cfg.NUMA.EffectiveMigrateEvery()
		m.migr = &migrateState{inst: mg, every: every, next: every, nodes: mg.Nodes()}
	}
	return m, nil
}

// migrateState drives the deterministic round-robin NUMA migration
// schedule: after every `every` retired memory accesses the thread hops
// to the next node, flushing its TLBs and per-core walk caches and
// stalling for the OS reschedule cost.
type migrateState struct {
	inst  scheme.Migratory
	every uint64
	next  uint64
	node  int
	nodes int
}

// migrateStallCycles is the modelled OS cost of a thread migration
// (deschedule, cross-node reschedule, cold-start bookkeeping).
const migrateStallCycles = 2000

// maybeMigrate sits on the retired-access path of NUMA machines; a nil
// check otherwise.
func (m *Machine) maybeMigrate() {
	if m.migr == nil || m.core.Accesses() < m.migr.next {
		return
	}
	m.migr.next += m.migr.every
	m.migr.node = (m.migr.node + 1) % m.migr.nodes
	m.migr.inst.SetNode(m.migr.node)
	m.core.FlushTLBs()
	m.core.CountSoftware(perf.NUMAMigrations, 1)
	m.core.Stall(migrateStallCycles)
}

// Poolable reports whether Renew can recycle this machine. Every
// machine can be renewed, so it is always true.
func (m *Machine) Poolable() bool { return true }

// Renew returns the machine to the state New(cfg, policy, seed) would
// have produced, reusing the expensive long-lived state — cache and TLB
// arrays, physical backing chunks — instead of reallocating it. The
// physical allocators are rewound and the tables rebuilt in New's order
// (EPT, then guest memory, then the guest or native tables), so every
// table page lands at the physical address a fresh machine's would,
// making a renewed machine byte-identical to a new one (the flatgold
// tests hold campaigns to that). A virtualized machine drops every
// tenant but the first. It reports false — leaving the machine unusable
// — when a table cannot be rebuilt (a policy the organization cannot
// back).
func (m *Machine) Renew(policy arch.PageSize, seed int64) bool {
	m.phys.Reset()
	if m.hyp != nil {
		m.cfg.Virt.GuestPages = policy
		if m.hyp.Reset() != nil {
			return false
		}
		m.gphys.Reset()
		clear(m.tenants[1:])
		m.tenants, m.tenant = m.tenants[:1], 0
		m.as = m.tenants[0]
	}
	if err := m.as.Reset(policy); err != nil {
		return false
	}
	m.engine.Reset()
	if m.migr != nil {
		m.migr.next = m.migr.every
		m.migr.node = 0
	}
	m.core.Reset(seed)
	m.core.SetAddressSpace(m.as.PageTable().Root(), m.faultHandler(m.as))
	m.quietInvalidate()
	m.promo = nil
	m.tracer = nil
	m.sampler = nil
	m.interval = nil
	m.phaseTrk = nil
	m.prefaults = 0
	m.traceProc = nil
	return true
}

// Release frees the host memory backing the machine's physical memory,
// which lives outside the Go heap. The machine is unusable afterwards.
// Release is idempotent; a machine never released is freed when the
// garbage collector finds it unreachable.
func (m *Machine) Release() { m.phys.Release() }

// faultHandler wraps an address space's demand-fault path. On virtualized
// machines it additionally books the EPT violations the guest fault
// induced (first touches of guest-physical blocks) as the ept.violations
// software event; quiet setup-path faults intentionally bypass this.
func (m *Machine) faultHandler(as *vm.AddrSpace) cpu.FaultHandler {
	if m.hyp == nil {
		return as.HandleFault
	}
	return func(va arch.VAddr) (arch.PageSize, error) {
		before := m.hyp.EPTViolations()
		ps, err := as.HandleFault(va)
		if d := m.hyp.EPTViolations() - before; d > 0 {
			m.core.CountSoftware(perf.EPTViolations, d)
		}
		return ps, err
	}
}

// Virtualized reports whether the machine runs under nested paging.
func (m *Machine) Virtualized() bool { return m.hyp != nil }

// Hypervisor exposes the virtualization layer (nil on native machines).
func (m *Machine) Hypervisor() *virt.Hypervisor { return m.hyp }

// AddTenant creates an additional guest address space on a virtualized
// machine — same heap policy, same guest-physical memory, same (shared)
// EPT — and returns its tenant index. The new tenant is not scheduled
// until SwitchTenant selects it.
func (m *Machine) AddTenant() (int, error) {
	if m.hyp == nil {
		return 0, fmt.Errorf("machine: AddTenant on a native machine")
	}
	pt, err := pagetable.New(m.gphys)
	if err != nil {
		return 0, fmt.Errorf("machine: %w", err)
	}
	as, err := vm.NewAddrSpaceTables(m.gphys, m.as.Policy(), pt)
	if err != nil {
		return 0, fmt.Errorf("machine: %w", err)
	}
	m.tenants = append(m.tenants, as)
	return len(m.tenants) - 1, nil
}

// Tenants returns the number of guest address spaces (1 on a freshly
// built virtualized machine, 0 native).
func (m *Machine) Tenants() int { return len(m.tenants) }

// SwitchTenant performs a guest context switch to tenant i: CR3 changes,
// so the TLBs and guest-dimension walk caches flush — but the nTLB and
// EPT paging-structure caches, keyed by guest-physical addresses under
// the shared EPT, stay warm. That retained state is the EPT-sharing
// benefit the multi-tenant sweeps quantify.
func (m *Machine) SwitchTenant(i int) error {
	if m.hyp == nil {
		return fmt.Errorf("machine: SwitchTenant on a native machine")
	}
	if i < 0 || i >= len(m.tenants) {
		return fmt.Errorf("machine: no tenant %d (have %d)", i, len(m.tenants))
	}
	if i == m.tenant {
		return nil
	}
	m.tenant = i
	m.as = m.tenants[i]
	m.quietInvalidate() // quiet cache holds the old tenant's frames
	m.core.SetAddressSpace(m.as.PageTable().Root(), m.faultHandler(m.as))
	return nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() *arch.SystemConfig { return &m.cfg }

// Policy returns the heap backing page size.
func (m *Machine) Policy() arch.PageSize { return m.as.Policy() }

// Malloc allocates n bytes of guest memory.
func (m *Machine) Malloc(n uint64) (arch.VAddr, error) {
	va, err := m.as.Malloc(n)
	if err == nil && m.tracer != nil {
		m.tracer.Malloc(va, n)
	}
	return va, err
}

// MustMalloc allocates or panics; workload setup code uses it.
func (m *Machine) MustMalloc(n uint64) arch.VAddr {
	va, err := m.as.Malloc(n)
	if err != nil {
		panic(err)
	}
	return va
}

// Load64 retires a load instruction reading the 8-byte word at va.
func (m *Machine) Load64(va arch.VAddr) uint64 {
	if m.tracer != nil {
		m.tracer.Load(va)
	}
	m.maybePromote()
	m.maybeMigrate()
	pa := m.core.Load(va)
	m.intervalTick()
	return m.phys.Read64(pa)
}

// Store64 retires a store instruction writing the 8-byte word at va.
func (m *Machine) Store64(va arch.VAddr, v uint64) {
	if m.tracer != nil {
		m.tracer.Store(va)
	}
	m.maybePromote()
	m.maybeMigrate()
	pa := m.core.Store(va)
	m.intervalTick()
	m.phys.Write64(pa, v)
}

// Ops retires n non-memory instructions (address arithmetic, compares,
// ALU work between memory accesses).
func (m *Machine) Ops(n uint64) {
	if m.tracer != nil {
		m.tracer.Ops(n)
	}
	m.core.Ops(n)
	m.intervalTick()
}

// Branch retires a branch instruction at program counter pc with the given
// real outcome.
func (m *Machine) Branch(pc uint64, taken bool) {
	if m.tracer != nil {
		m.tracer.Branch(pc, taken)
	}
	m.core.Branch(pc, taken)
	m.intervalTick()
}

// Counters snapshots the PMU.
func (m *Machine) Counters() perf.Counters { return m.core.Counters() }

// CycleCount returns the core cycle counter — the simulated clock the
// machine's timeline tracks sync to.
func (m *Machine) CycleCount() uint64 { return m.core.CycleCount() }

// EnableTrace attaches the machine to a timeline tracer under the given
// campaign-unique unit name: the walker gets a track per dimension, the
// core a speculation track, and the workload a phase track. A nil tracer
// leaves the machine untraced (every hook stays a pointer compare).
func (m *Machine) EnableTrace(tr *telemetry.Tracer, unit string) {
	if tr == nil {
		return
	}
	p := tr.Process(unit)
	m.engine.EnableTrace(p, m.core.CycleCount)
	m.core.SetTrace(p.Track("speculation"))
	m.phaseTrk = p.Track("phases")
	m.traceProc = p
}

// TraceProcess returns the machine's timeline process — nil until
// EnableTrace attaches one. Consumers that add their own tracks (the
// refute checker's violation pins) use it instead of re-resolving the
// unit name against the tracer.
func (m *Machine) TraceProcess() *telemetry.Process { return m.traceProc }

// BeginPhase opens a workload phase span (setup / prefault / steady /
// replay) on the machine's phase track at current core time.
func (m *Machine) BeginPhase(name string) {
	if m.phaseTrk == nil {
		return
	}
	m.phaseTrk.Sync(m.core.CycleCount())
	m.phaseTrk.Begin(name)
}

// EndPhase closes the innermost open phase span, annotating it with the
// cumulative count of quietly prefaulted pages.
func (m *Machine) EndPhase() {
	if m.phaseTrk == nil {
		return
	}
	m.phaseTrk.Sync(m.core.CycleCount())
	m.phaseTrk.Counter("prefaulted_pages", float64(m.prefaults))
	m.phaseTrk.End()
}

// Sampler returns the machine's PEBS-style sampler, creating and
// attaching it with the default ring capacity on first use. Arm events
// on it to start capturing; an unarmed sampler costs one len check per
// hook site and perturbs nothing.
func (m *Machine) Sampler() *perf.Sampler {
	if m.sampler == nil {
		m.sampler = perf.NewSampler(perf.DefaultSampleCapacity)
		m.core.AttachSampler(m.sampler)
	}
	return m.sampler
}

// AttachSampler attaches an externally built sampler (custom ring
// capacity, filters) to the datapath's sampling hooks.
func (m *Machine) AttachSampler(s *perf.Sampler) { m.core.AttachSampler(s) }

// StartIntervals begins interval counter streaming: one row of counter
// deltas per `every` retired instructions, the simulator's
// `perf stat -I`. It returns the reader; StopIntervals (or the reader's
// Flush) closes the final partial window.
func (m *Machine) StartIntervals(every uint64) (*perf.IntervalReader, error) {
	r, err := perf.NewIntervalReader(m.core.Counters, every)
	if err != nil {
		return nil, err
	}
	m.interval = r
	return r, nil
}

// StopIntervals flushes the open window, detaches the reader, and
// returns the timeline. Nil if interval streaming was never started.
func (m *Machine) StopIntervals() []perf.IntervalRow {
	if m.interval == nil {
		return nil
	}
	m.interval.Flush()
	rows := m.interval.Rows()
	m.interval = nil
	return rows
}

// intervalTick sits on every machine-level event; it is a nil check
// until streaming is on, then a compare until the boundary passes.
func (m *Machine) intervalTick() {
	if m.interval != nil {
		m.interval.Tick(m.core.Instructions())
	}
}

// Accesses returns the retired loads+stores so far — a cheap progress
// gauge workloads use to honour their operation budget.
func (m *Machine) Accesses() uint64 { return m.core.Accesses() }

// Poke64 writes the word at va without simulating the access: no
// instructions, cycles, TLB or cache state change. The page is mapped
// quietly if needed. Workload *setup* (input generation) uses Poke/Peek;
// it corresponds to the paper's untimed warmup run, keeping input
// construction out of the measured region. It is PokeWords of one word.
func (m *Machine) Poke64(va arch.VAddr, v uint64) {
	m.PokeWords(va, []uint64{v})
}

// PokeWords writes ws to consecutive words from va (8-byte aligned)
// without simulating the accesses, like Poke64 word by word. It
// translates once per 4 KB page the run covers, in ascending order, and
// stores each page's words with one physical-memory write. The pages are
// therefore first touched — demand-faulted, prefaulted on the tracer and
// given physical frames — in exactly the order word-by-word pokes would
// touch them.
func (m *Machine) PokeWords(va arch.VAddr, ws []uint64) {
	for len(ws) > 0 {
		n := (arch.Page4K.Bytes() - uint64(va)&arch.Page4K.Mask()) / 8
		if n > uint64(len(ws)) {
			n = uint64(len(ws))
		}
		m.phys.WriteWords(m.quietTranslate(va), ws[:n])
		va += arch.VAddr(n * 8)
		ws = ws[n:]
	}
}

// Peek64 reads the word at va without simulating the access.
func (m *Machine) Peek64(va arch.VAddr) uint64 {
	return m.phys.Read64(m.quietTranslate(va))
}

// quietSlots sizes the quiet translation cache (a power of two; 4096
// slots cover 16 MB of setup working set per fill).
const quietSlots = 4096

// quietInvalidPage marks an empty quiet-cache slot (never a real page
// base: page bases are 4 KB aligned).
const quietInvalidPage = ^arch.VAddr(0)

// quietInvalidate empties the quiet translation cache. Every event that
// can remap an existing page — tenant switch, hugepage promotion,
// machine renewal — must pass through here or quiet accesses would read
// stale frames.
func (m *Machine) quietInvalidate() {
	for i := range m.quietPage {
		m.quietPage[i] = quietInvalidPage
	}
}

func (m *Machine) quietTranslate(va arch.VAddr) arch.PAddr {
	// Direct-mapped translation cache at 4 KB granularity: setup code
	// pokes with high page locality, so this removes the software walk
	// from almost every quiet access.
	page := arch.PageBase(va, arch.Page4K)
	slot := (uint64(va) >> arch.PageShift4K) & (quietSlots - 1)
	if m.quietPage[slot] == page {
		return m.quietFrame[slot] + arch.PAddr(va-page)
	}
	pa, _, ok := m.as.PageTable().Lookup(va)
	if !ok {
		if _, err := m.as.HandleFault(va); err != nil {
			panic(fmt.Sprintf("machine: quiet access to unmapped %#x: %v", uint64(va), err))
		}
		m.prefaults++
		if m.tracer != nil {
			m.tracer.Prefault(page)
		}
		pa, _, ok = m.as.PageTable().Lookup(va)
		if !ok {
			panic("machine: fault handler did not map page")
		}
	}
	if m.hyp != nil {
		// The guest page table yielded a guest-physical address; compose
		// with the EPT to reach the host bytes (backing is eager, so a
		// mapped gPA always translates).
		hpa, hok := m.hyp.Translate(pa)
		if !hok {
			panic(fmt.Sprintf("machine: mapped gPA %#x not EPT-backed", uint64(pa)))
		}
		pa = hpa
	}
	m.quietPage[slot] = page
	m.quietFrame[slot] = pa - arch.PAddr(va-page)
	return pa
}

// Footprint is the program's memory footprint (malloc'd bytes, 4 KB
// rounded), the quantity the paper indexes every plot by.
func (m *Machine) Footprint() uint64 { return m.as.AllocatedBytes() }

// MappedBytes is the demand-mapped guest memory.
func (m *Machine) MappedBytes() uint64 { return m.as.MappedBytes() }

// PageTableBytes is the guest physical memory spent on page-table pages.
func (m *Machine) PageTableBytes() uint64 { return m.as.PageTable().TableBytes() }

// AddressSpace exposes the guest OS memory manager (tests, tools).
func (m *Machine) AddressSpace() *vm.AddrSpace { return m.as }
