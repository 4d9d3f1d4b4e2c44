// Package core implements the paper's contribution: the address
// translation overhead methodology of §III (superpage-baseline overhead
// estimation, walk cycles per instruction and its Equation 1
// decomposition) and a driver for every experiment in the evaluation —
// each figure and table of §V maps to one function here.
package core

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"

	"atscale/internal/arch"
	"atscale/internal/machine"
	"atscale/internal/perf"
	"atscale/internal/refute"
	"atscale/internal/telemetry"
	"atscale/internal/topdown"
	"atscale/internal/workloads"
)

// RunConfig parameterizes a measurement campaign.
//
// A RunConfig handed to NewSession is copied and the session's copy is
// immutable from then on: sweeps may read it from many goroutines at
// once. Experiments that need a variant (different seed, promotion on,
// hashed page tables) copy the config — Session.Config returns a copy for
// exactly that — and mutate the copy before its first use.
type RunConfig struct {
	// System is the simulated machine description.
	System arch.SystemConfig
	// Preset selects how much of each workload's size ladder to sweep.
	Preset workloads.SizePreset
	// Budget is the retired-access budget of one measured region.
	Budget uint64
	// Seed fixes the machine's randomized model decisions.
	Seed int64
	// EnablePromotion switches on the WCPI-guided hugepage promotion
	// policy (extension experiments only; the paper's machines run
	// without it).
	EnablePromotion bool
	// Interval, when non-zero, streams one row of counter deltas per
	// Interval retired instructions over the measured region
	// (`perf stat -I` keyed on instruction count); the timeline lands in
	// RunResult.Timeline. Zero leaves streaming off.
	Interval uint64
	// SamplePeriod, when non-zero, arms PEBS-style sampling over the
	// measured region with this period on each event in SampleEvents;
	// the drained records land in RunResult.Samples. Zero leaves
	// sampling off, which provably changes no counter value.
	SamplePeriod uint64
	// SampleEvents lists the events armed with SamplePeriod. Empty
	// defaults to the two dtlb walk-duration events, making the period a
	// walk-cycle count and sample weights reconstruct walk cycles.
	SampleEvents []perf.Event
	// SampleBuffer overrides the sample ring capacity (records);
	// <= 0 uses perf.DefaultSampleCapacity.
	SampleBuffer int
	// GuestPages, when non-nil, overrides every run's page-size policy.
	// Under nested paging (System.Virt.Enabled) the policy is the guest
	// OS page size, so this pins the guest dimension while experiments
	// vary everything else; page-size-sweep artifacts degenerate to one
	// policy under the override.
	GuestPages *arch.PageSize
	// Parallelism bounds how many simulations a campaign runs at once.
	// Zero (the default) means runtime.GOMAXPROCS(0); 1 forces the
	// serial schedule. Parallel and serial campaigns produce
	// byte-identical tables and CSV.
	Parallelism int
	// Log, when non-nil, receives progress lines. Lines are written
	// atomically (one Write per line), so a parallel campaign's log is
	// interleaved per-run but never corrupted mid-line.
	Log io.Writer
	// Trace, when non-nil, records every run unit's timeline (walker
	// spans, speculation instants, workload phases) plus the campaign
	// schedule; export it with Trace.Export. Timelines are clocked in
	// simulated cycles, so the exported file is byte-identical across
	// runs and across serial/parallel schedules. Nil leaves tracing off
	// at zero allocation cost on the simulation hot paths.
	Trace *telemetry.Tracer
	// Refute, when non-nil, evaluates the declared counter-identity
	// registry against every run unit's measured delta as it completes.
	// Violations are pinned to the unit's cycle range on a `refute`
	// timeline track (when tracing), carried in the unit's live event,
	// and aggregated into the checker's deterministic report.
	Refute *refute.Checker
	// Topdown, when non-nil, folds every completed unit's counter delta
	// into the attribution collector (per-unit, per-scheme-group, and
	// campaign-wide cycle attribution trees; atscale -topdown /
	// -topdown-diff render them). Nil skips collection entirely.
	Topdown *TopdownCollector
	// Events, when non-nil, is the live campaign sink: it receives one
	// UnitEvent per completed unit (headline metrics, counter deltas,
	// identity results, flattened attribution tree) plus the
	// scheduler's unit-start, total and worker signals, and folds them
	// into the stats behind /stats and the heartbeat. Nil skips event
	// construction entirely.
	Events *telemetry.Hub
	// UnitTag is appended verbatim to every unit name. Campaigns that
	// re-run identically-parameterized units under config variants the
	// name does not otherwise encode (sampling, EPT leaf sizes) tag them
	// so unit names — which key the refute report and the timeline —
	// stay campaign-unique.
	UnitTag string

	// experiment is the ID of the experiment the config runs under, the
	// `experiment` profile label of its units ("" outside an experiment:
	// no label).
	experiment string
	// pool is the worker pool shared by every config copied from one
	// session; NewSession creates it (see schedule.go).
	pool limiter
	// machines recycles simulated machines across the session's run
	// units (see schedule.go); nil — every standalone config — disables
	// pooling and every unit builds a fresh machine.
	machines *machinePool
}

// DefaultRunConfig returns the standard campaign configuration: the
// Table III machine, the medium ladder, and a two-million-access measured
// region per run.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		System: arch.DefaultSystem(),
		Preset: workloads.Medium,
		Budget: 2_000_000,
		Seed:   2024,
	}
}

// logMu serializes progress lines: concurrent run units may share one
// Log writer, and a single locked Write per line keeps output readable
// and race-free whatever the writer is.
var logMu sync.Mutex

func (c *RunConfig) logf(format string, args ...any) {
	if c.Log == nil {
		return
	}
	line := fmt.Sprintf(format+"\n", args...)
	logMu.Lock()
	defer logMu.Unlock()
	c.Log.Write([]byte(line))
}

// RunResult is one (workload, input size, page size) measurement.
type RunResult struct {
	// Workload is the program-generator name.
	Workload string
	// Param is the input-size parameter.
	Param uint64
	// PageSize is the heap backing policy of this run.
	PageSize arch.PageSize
	// Footprint is the program's memory footprint in bytes.
	Footprint uint64
	// Counters is the measured region's counter delta.
	Counters perf.Counters
	// Metrics is derived from Counters.
	Metrics perf.Metrics
	// Timeline is the interval stream (nil unless RunConfig.Interval).
	Timeline []perf.IntervalRow
	// Samples is the drained sample ring (nil unless sampling armed).
	Samples []perf.Sample
	// SampleDropped / SampleDroppedWeight count ring-overflow losses.
	SampleDropped       uint64
	SampleDroppedWeight uint64
}

// runSteady runs a unit's measured region. It is a variable only so that
// tests can compare the overlapped run with an inline one.
var runSteady = workloads.RunPhased

// Run executes one measurement: build the instance on a fresh machine
// backed with the given page size, then run the measured region. The
// unit runs under the runtime/pprof labels experiment (when the config
// runs under one), unit, scheme and pages, set once per unit, so a CPU
// profile splits by them; the measured region's timing back end adds
// side=back (see machine.Overlap).
func Run(cfg *RunConfig, spec *workloads.Spec, param uint64, ps arch.PageSize) (r RunResult, err error) {
	if cfg.GuestPages != nil {
		ps = *cfg.GuestPages
	}
	unit := unitName(cfg, spec, param, ps)
	// Keys in sorted order: pprof.Labels then makes the set in one
	// allocation.
	labels := pprof.Labels("pages", ps.String(), "scheme", topdownGroup(cfg), "unit", unit)
	if cfg.experiment != "" {
		labels = pprof.Labels("experiment", cfg.experiment, "pages", ps.String(), "scheme", topdownGroup(cfg), "unit", unit)
	}
	pprof.Do(context.Background(), labels, func(ctx context.Context) {
		r, err = run(ctx, cfg, spec, param, ps, unit)
	})
	return r, err
}

// run is Run under the unit's profile labels, carried by ctx.
func run(ctx context.Context, cfg *RunConfig, spec *workloads.Spec, param uint64, ps arch.PageSize, unit string) (RunResult, error) {
	sys := cfg.System
	// Synthetic sweeps reach virtual footprints beyond the default
	// physical memory; give the simulated machine DRAM headroom (it is
	// sparse — untouched memory costs nothing).
	if sys.PhysMemBytes < 256*arch.GB {
		sys.PhysMemBytes = 256 * arch.GB
	}
	m := cfg.machines.acquire(sys, ps, cfg.Seed)
	if m == nil {
		var err error
		m, err = machine.New(sys, ps, cfg.Seed)
		if err != nil {
			return RunResult{}, err
		}
	}
	// However the unit ends, its machine goes back to the pool or is
	// released.
	defer cfg.machines.release(m)
	if cfg.EnablePromotion && ps == arch.Page4K {
		m.EnablePromotion(machine.DefaultPromotionConfig())
	}
	// Tracing attaches before the build so the setup phase is on the
	// timeline too; the unit name doubles as the process name, so it
	// carries every config variant that distinguishes otherwise-equal
	// (workload, param, page size) units within one campaign.
	m.EnableTrace(cfg.Trace, unit)
	cfg.Events.UnitStarted()
	inst, err := spec.Instantiate(m, param)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: building %s param %d: %w", spec.Name(), param, err)
	}
	// Observability is armed after Build so samples and intervals cover
	// exactly the measured region, like the counter delta does.
	var smp *perf.Sampler
	if cfg.SamplePeriod > 0 {
		smp = perf.NewSampler(cfg.SampleBuffer)
		events := cfg.SampleEvents
		if len(events) == 0 {
			events = []perf.Event{perf.DTLBLoadWalkDuration, perf.DTLBStoreWalkDuration}
		}
		for _, e := range events {
			if err := smp.Arm(e, cfg.SamplePeriod); err != nil {
				return RunResult{}, fmt.Errorf("core: %w", err)
			}
		}
		m.AttachSampler(smp)
	}
	if cfg.Interval > 0 {
		if _, err := m.StartIntervals(cfg.Interval); err != nil {
			return RunResult{}, fmt.Errorf("core: %w", err)
		}
	}
	start := m.Counters()
	startCycle := m.CycleCount()
	runSteady(ctx, m, inst, cfg.Budget)
	endCycle := m.CycleCount()
	delta := perf.Delta(start, m.Counters())
	r := RunResult{
		Workload:  spec.Name(),
		Param:     param,
		PageSize:  ps,
		Footprint: m.Footprint(),
		Counters:  delta,
		Metrics:   perf.Compute(delta),
	}
	if cfg.Interval > 0 {
		r.Timeline = m.StopIntervals()
	}
	if smp != nil {
		r.Samples = smp.Drain()
		r.SampleDropped = smp.Dropped()
		r.SampleDroppedWeight = smp.DroppedWeight()
	}
	ev := unitEvent(unit, delta, r.Metrics)
	stats := []telemetry.UnitStat{
		{Name: "wcpi", Val: r.Metrics.WCPI},
		{Name: "cpi", Val: r.Metrics.CPI},
		{Name: "walk_cycles", Val: float64(ev.WalkCycles)},
		{Name: "instructions", Val: float64(ev.Instructions)},
	}
	if cfg.Refute != nil {
		out := checkIdentities(cfg, m, unit, startCycle, endCycle, &r, smp)
		ev.IdentitiesChecked, ev.IdentitiesViolated = uint64(out.Checked), uint64(len(out.Violations))
		stats = append(stats,
			telemetry.UnitStat{Name: "identities_checked", Val: float64(out.Checked)},
			telemetry.UnitStat{Name: "identities_violated", Val: float64(len(out.Violations))})
	}
	cfg.Trace.FinishUnit(telemetry.Unit{
		// Cycles spans the machine's whole traced extent (warmup
		// included), so the unit's detail tracks fit inside its
		// campaign tile.
		Name:   unit,
		Cycles: m.CycleCount(),
		Stats:  stats,
	})
	cfg.Topdown.Add(topdownGroup(cfg), unit, delta)
	publishUnit(cfg, ev, delta)
	cfg.logf("  run %-22s param=%-8d %-4s footprint=%-9s cpi=%.3f wcpi=%.4f",
		r.Workload, r.Param, ps, arch.FormatBytes(r.Footprint), r.Metrics.CPI, r.Metrics.WCPI)
	return r, nil
}

// checkIdentities runs the refute checker over one completed unit: it
// assembles the unit's evidence (counter delta, derived metrics, cycle
// extent, sampler ring accounting), evaluates the identity registry,
// and returns the outcome for the unit's live event. Violations are
// pinned to [startCycle, endCycle] on the unit's `refute` timeline
// track.
func checkIdentities(cfg *RunConfig, m *machine.Machine, unit string, startCycle, endCycle uint64, r *RunResult, smp *perf.Sampler) refute.Outcome {
	u := refute.Unit{
		Name:         unit,
		StartCycle:   startCycle,
		EndCycle:     endCycle,
		Virt:         cfg.System.Virt.Enabled,
		WrongPathCap: wrongPathCap(m),
		Counters:     r.Counters,
		Metrics:      r.Metrics,
	}
	if smp != nil {
		u.Sampling = true
		u.SamplesDrained = uint64(len(r.Samples))
		u.SamplesCaptured = smp.Captured()
		u.SamplesDropped = r.SampleDropped
		u.SampleCapacity = uint64(smp.Capacity())
		u.SampleDroppedWeight = r.SampleDroppedWeight
		for _, s := range r.Samples {
			u.SampleWeight += s.Weight
		}
		for _, e := range perf.Events() {
			if p := smp.Period(e); p > 0 {
				u.SampleEventsTotal += r.Counters.Get(e)
				u.SampleSlack += p
			}
		}
	}
	out := cfg.Refute.CheckUnit(u, m.TraceProcess())
	for _, v := range out.Violations {
		cfg.logf("  REFUTE %-22s identity %s violated (l=%g r=%g residual=%g)",
			r.Workload, v.Identity, v.L, v.R, v.Residual)
	}
	return out
}

// unitEvent builds a completed unit's live event from its measured
// delta; the identity results and the tree are filled in later.
func unitEvent(unit string, delta perf.Counters, mt perf.Metrics) telemetry.UnitEvent {
	return telemetry.UnitEvent{
		Unit:         unit,
		CPI:          mt.CPI,
		WCPI:         mt.WCPI,
		Cycles:       delta.Get(perf.Cycles),
		Instructions: delta.Get(perf.InstRetired),
		WalkCycles:   delta.Get(perf.DTLBLoadWalkDuration) + delta.Get(perf.DTLBStoreWalkDuration),
	}
}

// publishUnit completes ev with the unit's flattened attribution tree
// and publishes it to the live sink. Building the tree costs a few
// hundred Expr evals per *unit* (not per access) and only when the sink
// is armed.
func publishUnit(cfg *RunConfig, ev telemetry.UnitEvent, delta perf.Counters) {
	if cfg.Events == nil {
		return
	}
	ev.Tree = topdown.FromCounters(delta).Flatten()
	cfg.Events.Publish(ev)
}

// wrongPathCap is the per-flush wrong-path access cap m runs with: the
// refute.Unit field that bounds wrong-path STLB hits.
func wrongPathCap(m *machine.Machine) uint64 {
	return uint64(max(m.Config().CPU.MaxWrongPathAccesses, 0))
}

// unitName builds the campaign-unique run unit name: workload, size
// parameter, page size, seed, plus a marker per config variant that can
// coexist with the plain config in one campaign.
func unitName(cfg *RunConfig, spec *workloads.Spec, param uint64, ps arch.PageSize) string {
	name := fmt.Sprintf("%s p=%d %s seed=%d", spec.Name(), param, ps, cfg.Seed)
	if cfg.System.Virt.Enabled {
		name += " +virt"
	}
	if cfg.System.PageTable == "hashed" {
		name += " +hashed"
	}
	if cfg.EnablePromotion {
		name += " +promo"
	}
	if cfg.System.PagingLevels != 0 && cfg.System.PagingLevels != 4 {
		name += fmt.Sprintf(" +lvl%d", cfg.System.PagingLevels)
	}
	if cfg.System.Scheme != "" && cfg.System.Scheme != "radix" {
		name += " +" + cfg.System.Scheme
	}
	if n := cfg.System.NUMA.EffectiveNodes(); n > 1 {
		name += fmt.Sprintf(" +numa%d", n)
	}
	return name + cfg.UnitTag
}

// paperSuites are the benchmark suites of the paper's Table I.
var paperSuites = map[string]bool{
	"gapbs":    true,
	"ycsb":     true,
	"spec2006": true,
	"parsec":   true,
}

// PaperWorkloads returns the Table I workload set (the extension suites —
// synthetic streams and the micro kernels — are excluded from the paper's
// sweeps but available to custom campaigns).
func PaperWorkloads() []*workloads.Spec {
	var out []*workloads.Spec
	for _, s := range workloads.All() {
		if paperSuites[s.Suite] {
			out = append(out, s)
		}
	}
	return out
}
