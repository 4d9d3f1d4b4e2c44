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

// backEnd is the timing model: everything a Machine holds but the
// program's data. It consumes the front end's events through apply, on
// the caller's goroutine or, inside Overlap, on its own.
type backEnd struct {
	cfg    arch.SystemConfig
	phys   *mem.Phys
	as     *vm.AddrSpace
	core   *cpu.Core
	engine walker.Engine
	// fault is handleFault bound once at build, so switching address
	// spaces hands the core the same handler without allocating.
	fault cpu.FaultHandler

	// migr, when non-nil, drives the deterministic NUMA thread-migration
	// schedule through the engine.
	migr *migrateState

	// Virtualization layer (nil on native machines). All tenants share
	// hyp's EPT; as always aliases tenants[tenant].
	hyp     *virt.Hypervisor
	gphys   *virt.GuestPhys
	tenants []*vm.AddrSpace
	tenant  int

	// promo, when non-nil, is the WCPI-guided hugepage promotion policy.
	promo *promoState

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

// evKind is the kind of one streamed event.
type evKind uint8

// The streamed events: the retired instructions, and the quiet prefault.
const (
	evLoad evKind = iota
	evStore
	evOps
	evBranchTaken
	evBranchNotTaken
	evQuiet
)

// event is one streamed call: its kind and its operand (a virtual
// address, a program counter or an instruction count, by kind).
type event struct {
	a uint64
	k evKind
}

// apply executes one event on the timing model. It is the only way the
// streamed calls reach the back end, inline or overlapped.
func (b *backEnd) apply(e event) {
	switch e.k {
	case evLoad:
		b.maybePromote()
		b.maybeMigrate()
		b.core.Load(arch.VAddr(e.a))
	case evStore:
		b.maybePromote()
		b.maybeMigrate()
		b.core.Store(arch.VAddr(e.a))
	case evOps:
		b.core.Ops(e.a)
	case evBranchTaken, evBranchNotTaken:
		b.core.Branch(e.a, e.k == evBranchTaken)
	case evQuiet:
		b.prefault(arch.VAddr(e.a))
		return
	}
	b.intervalTick()
}

// build assembles the timing model New describes. A back end that
// already has physical memory lays it out afresh for cfg and keeps it,
// with the host memory it holds; everything else is built new.
func (b *backEnd) build(cfg arch.SystemConfig, policy arch.PageSize, seed int64) error {
	if err := Validate(cfg, policy); err != nil {
		return err
	}
	phys := b.phys
	if phys == nil {
		phys = mem.NewPhysNUMA(cfg.PhysMemBytes, cfg.NUMA.EffectiveNodes())
	} else {
		phys.Reconfigure(cfg.PhysMemBytes, cfg.NUMA.EffectiveNodes())
	}
	// A nested machine's config mirror records the guest OS heap policy,
	// for reports.
	*b = backEnd{cfg: withGuestPages(cfg, policy), phys: phys}
	caches := cache.NewHierarchy(&b.cfg)

	var as *vm.AddrSpace
	var engine walker.Engine
	var err error
	if cfg.Virt.Enabled {
		// Nested paging: the machine's address space becomes a guest. Its
		// page tables are built in guest-physical memory, so the walker
		// must cross into the EPT dimension to resolve every guest level.
		hyp, herr := virt.NewHypervisor(b.phys, cfg.Virt.EPTPages)
		if herr != nil {
			return fmt.Errorf("machine: %w", herr)
		}
		b.hyp = hyp
		b.gphys = virt.NewGuestPhys(hyp, cfg.PhysMemBytes)
		pt, perr := pagetable.New(b.gphys)
		if perr != nil {
			return fmt.Errorf("machine: %w", perr)
		}
		as, err = vm.NewAddrSpaceTables(b.gphys, policy, pt)
		engine = walker.NewNested(b.phys, hyp.Root(), b.cfg.PSC, b.cfg.Virt, caches)
	} else if cfg.PageTable == "hashed" {
		ht, herr := pagetable.NewHashed(b.phys, 1<<17)
		if herr != nil {
			return fmt.Errorf("machine: %w", herr)
		}
		as, err = vm.NewAddrSpaceTables(b.phys, policy, ht)
		engine = walker.NewHashed(b.phys, caches, ht)
	} else {
		// Native radix machines go through the translation-scheme seam:
		// the configured scheme builds the walk engine over the shared
		// physical memory and data-cache hierarchy.
		sch, serr := scheme.ByName(cfg.Scheme)
		if serr != nil {
			return fmt.Errorf("machine: %w", serr)
		}
		as, err = vm.NewAddrSpaceDepth(b.phys, policy, cfg.PagingLevels)
		if err == nil {
			engine, err = sch.Build(scheme.Deps{Cfg: &b.cfg, Phys: b.phys, Caches: caches})
		}
	}
	if err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	b.as = as
	b.engine = engine
	tlbs := tlb.NewHierarchy(&b.cfg)
	b.core = cpu.New(&b.cfg, tlbs, caches, engine, seed)
	b.fault = b.handleFault
	b.core.SetAddressSpace(as.PageTable().Root(), b.fault)
	if b.hyp != nil {
		b.tenants = []*vm.AddrSpace{as}
	}
	if mg, ok := engine.(scheme.Migratory); ok && cfg.NUMA.EffectiveNodes() > 1 {
		every := cfg.NUMA.EffectiveMigrateEvery()
		b.migr = &migrateState{inst: mg, every: every, next: every, nodes: mg.Nodes()}
	}
	return nil
}

// Validate reports whether New(cfg, policy, seed) would reject the
// pair, without building anything: cfg's own checks, the scheme registry
// and the page policy the page-table organization can back. A pair it
// passes builds, host memory permitting.
func Validate(cfg arch.SystemConfig, policy arch.PageSize) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if _, err := scheme.ByName(cfg.Scheme); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if cfg.PageTable == "hashed" && policy != arch.Page4K {
		return fmt.Errorf("machine: hashed page tables support the 4KB policy only, got %s", policy)
	}
	return nil
}

// reconfigure is Machine.Reconfigure's back-end half. A machine asked
// for the config it already has, the guest policy a nested config
// records aside, renews in place: it rewinds the physical allocators and
// rebuilds the tables in New's order (EPT, then guest memory, then the
// guest or native tables), so every table page lands where a fresh
// machine's would. Any other config is built anew on the machine's
// physical memory.
func (b *backEnd) reconfigure(cfg arch.SystemConfig, policy arch.PageSize, seed int64) error {
	if withGuestPages(b.cfg, policy) != withGuestPages(cfg, policy) {
		return b.build(cfg, policy, seed)
	}
	b.phys.Reset()
	if b.hyp != nil {
		b.cfg.Virt.GuestPages = policy
		if err := b.hyp.Reset(); err != nil {
			return fmt.Errorf("machine: %w", err)
		}
		b.gphys.Reset()
		clear(b.tenants[1:])
		b.tenants, b.tenant = b.tenants[:1], 0
		b.as = b.tenants[0]
	}
	if err := b.as.Reset(policy); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	b.engine.Reset()
	if b.migr != nil {
		b.migr.next = b.migr.every
		b.migr.node = 0
	}
	b.core.Reset(seed)
	b.core.SetAddressSpace(b.as.PageTable().Root(), b.fault)
	b.promo = nil
	b.sampler = nil
	b.interval = nil
	b.phaseTrk = nil
	b.prefaults = 0
	b.traceProc = nil
	return nil
}

// withGuestPages returns cfg as a machine built with the given heap
// policy records it: a nested config's guest page size is the policy.
func withGuestPages(cfg arch.SystemConfig, policy arch.PageSize) arch.SystemConfig {
	if cfg.Virt.Enabled {
		cfg.Virt.GuestPages = policy
	}
	return cfg
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
func (b *backEnd) maybeMigrate() {
	if b.migr == nil || b.core.Accesses() < b.migr.next {
		return
	}
	b.migr.next += b.migr.every
	b.migr.node = (b.migr.node + 1) % b.migr.nodes
	b.migr.inst.SetNode(b.migr.node)
	b.core.FlushTLBs()
	b.core.CountSoftware(perf.NUMAMigrations, 1)
	b.core.Stall(migrateStallCycles)
}

// handleFault is the core's demand-fault path: the current address
// space's fault handler. On virtualized machines it additionally books
// the EPT violations the guest fault induced (first touches of
// guest-physical blocks) as the ept.violations software event; quiet
// setup-path faults intentionally bypass this.
func (b *backEnd) handleFault(va arch.VAddr) (arch.PageSize, error) {
	if b.hyp == nil {
		return b.as.HandleFault(va)
	}
	before := b.hyp.EPTViolations()
	ps, err := b.as.HandleFault(va)
	if d := b.hyp.EPTViolations() - before; d > 0 {
		b.core.CountSoftware(perf.EPTViolations, d)
	}
	return ps, err
}

// addTenant is Machine.AddTenant's back-end half.
func (b *backEnd) addTenant() (int, error) {
	if b.hyp == nil {
		return 0, fmt.Errorf("machine: AddTenant on a native machine")
	}
	pt, err := pagetable.New(b.gphys)
	if err != nil {
		return 0, fmt.Errorf("machine: %w", err)
	}
	as, err := vm.NewAddrSpaceTables(b.gphys, b.as.Policy(), pt)
	if err != nil {
		return 0, fmt.Errorf("machine: %w", err)
	}
	b.tenants = append(b.tenants, as)
	return len(b.tenants) - 1, nil
}

// switchTenant is Machine.SwitchTenant's back-end half.
func (b *backEnd) switchTenant(i int) error {
	if b.hyp == nil {
		return fmt.Errorf("machine: SwitchTenant on a native machine")
	}
	if i < 0 || i >= len(b.tenants) {
		return fmt.Errorf("machine: no tenant %d (have %d)", i, len(b.tenants))
	}
	if i == b.tenant {
		return nil
	}
	b.tenant = i
	b.as = b.tenants[i]
	b.core.SetAddressSpace(b.as.PageTable().Root(), b.fault)
	return nil
}

// enableTrace is Machine.EnableTrace's back-end half.
func (b *backEnd) enableTrace(tr *telemetry.Tracer, unit string) {
	if tr == nil {
		return
	}
	p := tr.Process(unit)
	b.engine.EnableTrace(p, b.core.CycleCount)
	b.core.SetTrace(p.Track("speculation"))
	b.phaseTrk = p.Track("phases")
	b.traceProc = p
}

// beginPhase is Machine.BeginPhase's back-end half.
func (b *backEnd) beginPhase(name string) {
	if b.phaseTrk == nil {
		return
	}
	b.phaseTrk.Sync(b.core.CycleCount())
	b.phaseTrk.Begin(name)
}

// endPhase is Machine.EndPhase's back-end half.
func (b *backEnd) endPhase() {
	if b.phaseTrk == nil {
		return
	}
	b.phaseTrk.Sync(b.core.CycleCount())
	b.phaseTrk.Counter("prefaulted_pages", float64(b.prefaults))
	b.phaseTrk.End()
}

// intervalTick sits on every retired event; it is a nil check until
// streaming is on, then a compare until the boundary passes.
func (b *backEnd) intervalTick() {
	if b.interval != nil {
		b.interval.Tick(b.core.Instructions())
	}
}

// prefault maps va's page without simulating an access — no
// instruction, cycle, TLB or cache state changes — if it is not mapped
// yet, and reports whether it had to.
func (b *backEnd) prefault(va arch.VAddr) bool {
	if _, _, ok := b.as.PageTable().Lookup(va); ok {
		return false
	}
	if _, err := b.as.HandleFault(va); err != nil {
		panic(fmt.Sprintf("machine: quiet access to unmapped %#x: %v", uint64(va), err))
	}
	b.prefaults++
	return true
}
