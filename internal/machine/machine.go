// Package machine assembles the full simulated system — physical memory,
// page tables, TLBs, paging-structure caches, walker, caches, core, and
// the guest OS — behind the small API workloads program against: Malloc,
// Load64/Store64, Ops, and Branch.
//
// A Machine is split in two. The front end is what the workload talks
// to: it keeps the program's data words, keyed by virtual address with
// one store per address space, and the retired-access count budgets read.
// The back end is the timing model: core, TLBs, caches, walker, guest OS,
// page tables and simulated physical memory, plus promotion, migration
// and every observer. Load64, Store64, Ops and Branch — and the quiet
// prefault inside Poke64, PokeWords and Peek64 — reach the back end as
// events; every other method drains the events first and then runs
// synchronously. Inside Overlap the back end applies the events on its
// own goroutine, so the workload's own code runs beside the timing
// model; everywhere else each event applies inline, through the same
// function.
//
// The counters are a function of the event stream alone, so where the
// data lives cannot change them. Simulated physical memory holds only
// translation structures (radix, hashed, guest and EPT tables); the
// front end's store is the only copy of program data. The guest OS never
// reuses a virtual address and maps nothing twice, so data read by
// virtual address is the data a read through the translated physical
// address would return. The timing model still translates, walks and
// caches every access; it just does not fetch the word.
package machine

import (
	"context"

	"atscale/internal/arch"
	"atscale/internal/mem"
	"atscale/internal/perf"
	"atscale/internal/telemetry"
	"atscale/internal/virt"
	"atscale/internal/vm"
)

// Machine is one simulated single-core system running one process.
type Machine struct {
	// The front end, used only by the caller's goroutine.

	// data holds each address space's program data at va − vm.HeapBase,
	// indexed by tenant; words is the running tenant's store. Non-nil
	// stores past len(data) are kept, reset, for tenants a renewed machine
	// adds again.
	data  []*mem.Words
	words *mem.Words
	// accesses counts the retired loads and stores, the back end's
	// AllLoads + AllStores once it has caught up.
	accesses uint64
	// tracer, when non-nil, observes the workload-visible event stream.
	tracer Tracer
	// quietPage is the quiet-access cache (setup-phase fast path): a
	// direct-mapped set of 4 KB pages known to be mapped by the time the
	// back end reaches the next event, indexed by page number,
	// quietInvalidPage when empty. A hit sends the back end nothing.
	quietPage [quietSlots]arch.VAddr
	// pipe carries events to the back end while Overlap runs.
	pipe pipe

	// be is the timing back end. The caller's goroutine touches it only
	// through emit or after sync.
	be backEnd
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

// SetTracer installs (or, with nil, removes) the event tracer. The tracer
// is front-end state, so this does not wait for the back end.
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// Prefault quietly maps the page containing va, as a poke there would:
// the replay of a recorded setup-phase materialization, or the mapping
// half of a deferred fill (DeferWords).
func (m *Machine) Prefault(va arch.VAddr) { m.quiet(va) }

// New builds a machine from cfg whose heap is backed with the given page
// size policy. seed fixes all randomized model decisions.
func New(cfg arch.SystemConfig, policy arch.PageSize, seed int64) (*Machine, error) {
	m := &Machine{}
	if err := m.be.build(cfg, policy, seed); err != nil {
		return nil, err
	}
	m.quietInvalidate()
	m.words = m.be.phys.NewWords()
	m.data = []*mem.Words{m.words}
	return m, nil
}

// Poolable reports whether Renew can recycle this machine. Every
// machine can be renewed, so it is always true.
func (m *Machine) Poolable() bool { return true }

// Renew returns the machine to the state New(cfg, policy, seed) would
// have produced for its own config: it is Reconfigure with that config,
// and reports whether it succeeded. A machine that fails to renew (a
// policy the organization cannot back) is unusable.
func (m *Machine) Renew(policy arch.PageSize, seed int64) bool {
	return m.Reconfigure(*m.Config(), policy, seed) == nil
}

// Reconfigure leaves the machine exactly as New(cfg, policy, seed) would
// build it — the same counters, physical frames and data — but on the
// host memory it already holds: the data stores are reset and the
// physical memory is laid out afresh, their touched chunks kept as
// spares for the next unit to write. A machine asked for its own config
// (a nested one's guest policy aside) renews in place, reusing its cache
// and TLB arrays too; any other config rebuilds the timing model. The
// flatgold tests hold pooled campaigns to a fresh build. On error the
// machine is unusable; Release it.
func (m *Machine) Reconfigure(cfg arch.SystemConfig, policy arch.PageSize, seed int64) error {
	m.sync()
	for _, w := range m.data[:cap(m.data)] {
		if w != nil {
			w.Reset()
		}
	}
	m.data = m.data[:1]
	m.words = m.data[0]
	m.accesses = 0
	m.tracer = nil
	m.quietInvalidate()
	return m.be.reconfigure(cfg, policy, seed)
}

// Release frees the host memory backing the machine's physical memory and
// data stores, which live outside the Go heap. The machine is unusable
// afterwards. Release is idempotent; a machine never released is freed
// when the garbage collector finds it unreachable.
func (m *Machine) Release() {
	m.sync()
	for _, w := range m.data[:cap(m.data)] {
		if w != nil {
			w.Release()
		}
	}
	m.be.phys.Release()
}

// Overlap runs f with the back end applying f's events on a goroutine of
// its own, at most batchesInFlight batches of batchEvents events behind,
// and returns once every event is applied and the goroutine has exited.
// The results are those of running f without Overlap: the back end sees
// the same events in the same order, and every call that reads or changes
// back-end state waits for it to catch up. A back-end panic is re-raised
// on the caller's goroutine at the next handoff, as a value whose message
// is the original's followed by the back end's stack. Stores and pokes
// write the data store before their event is applied, so a write beyond
// the heap's extent fails there, with the same panic inline or not.
// ctx carries the profile labels the back end's goroutine runs under, with
// side=back added.
func (m *Machine) Overlap(ctx context.Context, f func()) {
	m.sync()
	m.pipe.start(ctx, &m.be)
	defer m.pipe.stop()
	f()
	m.sync()
}

// emit hands one event to the back end: inline when no Overlap runs,
// else through the current batch.
func (m *Machine) emit(e event) {
	p := &m.pipe
	if p.cur == nil {
		m.be.apply(e)
		return
	}
	p.cur.ev[p.cur.n] = e
	p.cur.n++
	if p.cur.n == batchEvents {
		p.handoff()
	}
}

// sync drains the event queue: once it returns, the back end has applied
// every event emitted so far and is idle, so the caller may use it
// directly. Without an Overlap running it costs one compare.
func (m *Machine) sync() {
	if m.pipe.cur != nil {
		m.pipe.drain()
	}
}

// Virtualized reports whether the machine runs under nested paging.
func (m *Machine) Virtualized() bool {
	m.sync()
	return m.be.hyp != nil
}

// Hypervisor exposes the virtualization layer (nil on native machines).
func (m *Machine) Hypervisor() *virt.Hypervisor {
	m.sync()
	return m.be.hyp
}

// AddTenant creates an additional guest address space on a virtualized
// machine — same heap policy, same guest-physical memory, same (shared)
// EPT — and returns its tenant index. The new tenant is not scheduled
// until SwitchTenant selects it.
func (m *Machine) AddTenant() (int, error) {
	m.sync()
	i, err := m.be.addTenant()
	if err != nil {
		return 0, err
	}
	if n := len(m.data); n < cap(m.data) && m.data[:n+1][n] != nil {
		m.data = m.data[:n+1]
	} else {
		m.data = append(m.data, m.be.phys.NewWords())
	}
	return i, nil
}

// Tenants returns the number of guest address spaces (1 on a freshly
// built virtualized machine, 0 native).
func (m *Machine) Tenants() int {
	m.sync()
	return len(m.be.tenants)
}

// SwitchTenant performs a guest context switch to tenant i: CR3 changes,
// so the TLBs and guest-dimension walk caches flush — but the nTLB and
// EPT paging-structure caches, keyed by guest-physical addresses under
// the shared EPT, stay warm. That retained state is the EPT-sharing
// benefit the multi-tenant sweeps quantify.
func (m *Machine) SwitchTenant(i int) error {
	m.sync()
	if err := m.be.switchTenant(i); err != nil {
		return err
	}
	if m.words != m.data[i] {
		m.words = m.data[i]
		m.quietInvalidate() // the quiet cache holds the old tenant's pages
	}
	return nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() *arch.SystemConfig {
	m.sync()
	return &m.be.cfg
}

// Policy returns the heap backing page size.
func (m *Machine) Policy() arch.PageSize {
	m.sync()
	return m.be.as.Policy()
}

// Malloc allocates n bytes of guest memory.
func (m *Machine) Malloc(n uint64) (arch.VAddr, error) {
	m.sync()
	va, err := m.be.as.Malloc(n)
	if err != nil {
		return va, err
	}
	m.words.Grow(uint64(m.be.as.HeapEnd() - vm.HeapBase))
	if m.tracer != nil {
		m.tracer.Malloc(va, n)
	}
	return va, nil
}

// MustMalloc allocates or panics; workload setup code uses it.
func (m *Machine) MustMalloc(n uint64) arch.VAddr {
	va, err := m.Malloc(n)
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
	m.accesses++
	m.emit(event{a: uint64(va), k: evLoad})
	return m.words.Read64(uint64(va - vm.HeapBase))
}

// Store64 retires a store instruction writing the 8-byte word at va.
func (m *Machine) Store64(va arch.VAddr, v uint64) {
	if m.tracer != nil {
		m.tracer.Store(va)
	}
	m.accesses++
	m.words.Write64(uint64(va-vm.HeapBase), v)
	m.emit(event{a: uint64(va), k: evStore})
}

// Ops retires n non-memory instructions (address arithmetic, compares,
// ALU work between memory accesses).
func (m *Machine) Ops(n uint64) {
	if m.tracer != nil {
		m.tracer.Ops(n)
	}
	m.emit(event{a: n, k: evOps})
}

// Branch retires a branch instruction at program counter pc with the given
// real outcome.
func (m *Machine) Branch(pc uint64, taken bool) {
	if m.tracer != nil {
		m.tracer.Branch(pc, taken)
	}
	k := evBranchNotTaken
	if taken {
		k = evBranchTaken
	}
	m.emit(event{a: pc, k: k})
}

// Counters snapshots the PMU.
func (m *Machine) Counters() perf.Counters {
	m.sync()
	return m.be.core.Counters()
}

// CycleCount returns the core cycle counter — the simulated clock the
// machine's timeline tracks sync to.
func (m *Machine) CycleCount() uint64 {
	m.sync()
	return m.be.core.CycleCount()
}

// EnableTrace attaches the machine to a timeline tracer under the given
// campaign-unique unit name: the walker gets a track per dimension, the
// core a speculation track, and the workload a phase track. A nil tracer
// leaves the machine untraced (every hook stays a pointer compare).
func (m *Machine) EnableTrace(tr *telemetry.Tracer, unit string) {
	m.sync()
	m.be.enableTrace(tr, unit)
}

// TraceProcess returns the machine's timeline process — nil until
// EnableTrace attaches one. Consumers that add their own tracks (the
// refute checker's violation pins) use it instead of re-resolving the
// unit name against the tracer.
func (m *Machine) TraceProcess() *telemetry.Process {
	m.sync()
	return m.be.traceProc
}

// BeginPhase opens a workload phase span (setup / prefault / steady /
// replay) on the machine's phase track at current core time.
func (m *Machine) BeginPhase(name string) {
	m.sync()
	m.be.beginPhase(name)
}

// EndPhase closes the innermost open phase span, annotating it with the
// cumulative count of quietly prefaulted pages.
func (m *Machine) EndPhase() {
	m.sync()
	m.be.endPhase()
}

// Sampler returns the machine's PEBS-style sampler, creating and
// attaching it with the default ring capacity on first use. Arm events
// on it to start capturing; an unarmed sampler costs one len check per
// hook site and perturbs nothing.
func (m *Machine) Sampler() *perf.Sampler {
	m.sync()
	if m.be.sampler == nil {
		m.be.sampler = perf.NewSampler(perf.DefaultSampleCapacity)
		m.be.core.AttachSampler(m.be.sampler)
	}
	return m.be.sampler
}

// AttachSampler attaches an externally built sampler (custom ring
// capacity, filters) to the datapath's sampling hooks.
func (m *Machine) AttachSampler(s *perf.Sampler) {
	m.sync()
	m.be.core.AttachSampler(s)
}

// StartIntervals begins interval counter streaming: one row of counter
// deltas per `every` retired instructions, the simulator's
// `perf stat -I`. It returns the reader; StopIntervals (or the reader's
// Flush) closes the final partial window.
func (m *Machine) StartIntervals(every uint64) (*perf.IntervalReader, error) {
	m.sync()
	r, err := perf.NewIntervalReader(m.be.core.Counters, every)
	if err != nil {
		return nil, err
	}
	m.be.interval = r
	return r, nil
}

// StopIntervals flushes the open window, detaches the reader, and
// returns the timeline. Nil if interval streaming was never started.
func (m *Machine) StopIntervals() []perf.IntervalRow {
	m.sync()
	if m.be.interval == nil {
		return nil
	}
	m.be.interval.Flush()
	rows := m.be.interval.Rows()
	m.be.interval = nil
	return rows
}

// Accesses returns the retired loads+stores so far — a cheap progress
// gauge workloads use to honour their operation budget. It is kept by
// the front end, so it never waits for the back end.
func (m *Machine) Accesses() uint64 { return m.accesses }

// Poke64 writes the word at va without simulating the access: no
// instructions, cycles, TLB or cache state change. The page is mapped
// quietly if needed. Workload *setup* (input generation) uses Poke/Peek;
// it corresponds to the paper's untimed warmup run, keeping input
// construction out of the measured region. It is PokeWords of one word.
func (m *Machine) Poke64(va arch.VAddr, v uint64) {
	m.PokeWords(va, []uint64{v})
}

// PokeWords writes ws to consecutive words from va (8-byte aligned)
// without simulating the accesses, like Poke64 word by word. It maps
// once per 4 KB page the run covers, in ascending order, and stores each
// page's words with one data-store write. The pages are therefore first
// touched — demand-faulted, prefaulted on the tracer and given physical
// frames — in exactly the order word-by-word pokes would touch them.
func (m *Machine) PokeWords(va arch.VAddr, ws []uint64) {
	for len(ws) > 0 {
		n := (arch.Page4K.Bytes() - uint64(va)&arch.Page4K.Mask()) / 8
		if n > uint64(len(ws)) {
			n = uint64(len(ws))
		}
		m.words.WriteWords(uint64(va-vm.HeapBase), ws[:n])
		m.quiet(va)
		va += arch.VAddr(n * 8)
		ws = ws[n:]
	}
}

// DeferWords makes gen the contents of the n words from va (8-byte
// aligned) in the running tenant's data store, like pokes that write
// them now, but without writing them or mapping their pages: each 4 KB
// chunk of the range gets its words when it is first read or written,
// setup or measured region alike (mem.Words.Defer). gen(i, ws) fills ws
// with words i, i+1, ... of the range; it must depend on its arguments
// alone and must not call into the machine. Quiet prefaults, when the
// pages must be mapped in a poke's order, are the caller's.
func (m *Machine) DeferWords(va arch.VAddr, n uint64, gen func(i uint64, ws []uint64)) {
	m.words.Defer(uint64(va-vm.HeapBase), n, gen)
}

// Peek64 reads the word at va without simulating the access.
func (m *Machine) Peek64(va arch.VAddr) uint64 {
	m.quiet(va)
	return m.words.Read64(uint64(va - vm.HeapBase))
}

// quietSlots sizes the quiet-access cache (a power of two; 4096 slots
// cover 16 MB of setup working set per fill).
const quietSlots = 4096

// quietInvalidPage marks an empty quiet-cache slot (never a real page
// base: page bases are 4 KB aligned).
const quietInvalidPage = ^arch.VAddr(0)

// quietInvalidate empties the quiet-access cache. Every event that can
// unmap a page — tenant switch, machine renewal — must pass through here
// or a quiet access would skip mapping it. (Hugepage promotion remaps
// pages but leaves them mapped, so it need not.)
func (m *Machine) quietInvalidate() {
	for i := range m.quietPage {
		m.quietPage[i] = quietInvalidPage
	}
}

// quiet maps va's page without simulating an access, if it is not
// mapped yet. Setup code pokes with high page locality, so the quiet
// cache keeps almost every quiet access off the back end. On a miss the
// back end maps the page if its software walk finds it unmapped. A
// tracer must see that prefault in order with the events around it, so
// with one installed the back end catches up and the miss applies at
// once; otherwise it streams like any event.
func (m *Machine) quiet(va arch.VAddr) {
	page := arch.PageBase(va, arch.Page4K)
	slot := (uint64(va) >> arch.PageShift4K) & (quietSlots - 1)
	if m.quietPage[slot] == page {
		return
	}
	m.quietPage[slot] = page
	if m.tracer == nil {
		m.emit(event{a: uint64(va), k: evQuiet})
		return
	}
	m.sync()
	if m.be.prefault(va) {
		m.tracer.Prefault(page)
	}
}

// Footprint is the program's memory footprint (malloc'd bytes, 4 KB
// rounded), the quantity the paper indexes every plot by.
func (m *Machine) Footprint() uint64 {
	m.sync()
	return m.be.as.AllocatedBytes()
}

// MappedBytes is the demand-mapped guest memory.
func (m *Machine) MappedBytes() uint64 {
	m.sync()
	return m.be.as.MappedBytes()
}

// PageTableBytes is the guest physical memory spent on page-table pages.
func (m *Machine) PageTableBytes() uint64 {
	m.sync()
	return m.be.as.PageTable().TableBytes()
}

// AddressSpace exposes the guest OS memory manager (tests, tools).
func (m *Machine) AddressSpace() *vm.AddrSpace {
	m.sync()
	return m.be.as
}

// Promotions returns how many 2 MB blocks the policy has collapsed.
func (m *Machine) Promotions() uint64 {
	m.sync()
	return m.be.as.Promotions()
}

// EnablePromotion switches the WCPI-guided promotion policy on. Only
// meaningful for machines with a 4 KB heap policy (superpage-backed heaps
// have nothing to promote).
func (m *Machine) EnablePromotion(cfg PromotionConfig) {
	m.sync()
	m.be.enablePromotion(cfg)
}
