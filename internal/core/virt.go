package core

import (
	"fmt"
	"math"
	"math/rand"

	"atscale/internal/arch"
	"atscale/internal/machine"
	"atscale/internal/perf"
	"atscale/internal/refute"
	"atscale/internal/workloads"
)

// This file drives the virtualization experiment: the paper's scaling
// methodology re-run under nested paging. Three questions, one table
// each:
//
//  1. How does the nested-paging translation tax scale with footprint?
//     The same synthetic ladder runs native and virtualized; the
//     WCPI ratio per rung is the virtualization multiplier, and the
//     guest/EPT walk-cycle split attributes it per dimension.
//  2. How do the two page-size knobs interact? A guest-pages x EPT-pages
//     matrix at one rung, since the dimensions' leaves compound
//     (loads/walk runs from 24 down to 14).
//  3. Does EPT sharing help consolidation? N guest address spaces
//     round-robin on one machine over a shared EPT: nTLB and EPT-PSC
//     state survives the guest context switches that kill every
//     guest-dimension structure.

// virtSweepWorkload is the ladder the native-vs-nested sweep climbs.
const virtSweepWorkload = "uniform-synth"

// VirtSweepRow is one ladder rung measured native and nested.
type VirtSweepRow struct {
	Param     uint64
	Footprint uint64

	WCPINative, WCPINested float64
	Ratio                  float64 // nested / native
	EPTShare               float64 // EPT walk cycles / nested walk cycles
	NTLBHitRate            float64
	LoadsPerWalkNative     float64
	LoadsPerWalkNested     float64
}

// VirtMatrixRow is one guest x EPT page-size combination.
type VirtMatrixRow struct {
	GuestPages, EPTPages arch.PageSize
	Footprint            uint64
	WCPI                 float64
	LoadsPerWalk         float64
	EPTShare             float64
	HostMapped           uint64
}

// VirtTenantRow is one consolidation level.
type VirtTenantRow struct {
	Tenants     int
	WCPI        float64
	NTLBHitRate float64
	EPTShare    float64
	Switches    uint64
}

// VirtResult is the virtualization experiment's dataset.
type VirtResult struct {
	Sweep   []VirtSweepRow
	Matrix  []VirtMatrixRow
	Tenants []VirtTenantRow
}

// virtualize returns a copy of sys with nested paging enabled at the
// given EPT leaf size (guest pages ride on the run's policy argument).
func virtualize(sys arch.SystemConfig, ept arch.PageSize) arch.SystemConfig {
	sys.Virt = arch.DefaultVirt()
	sys.Virt.EPTPages = ept
	return sys
}

// VirtExperiment runs all three virtualization studies on the session's
// worker pool. Every unit is an independent seed-deterministic machine,
// so parallel campaigns render byte-identical to serial ones.
func VirtExperiment(s *Session) (*VirtResult, error) {
	cfg := s.Config()
	spec, err := workloads.ByName(virtSweepWorkload)
	if err != nil {
		return nil, err
	}
	params := spec.Sizes(cfg.Preset)
	matrix := []struct{ guest, ept arch.PageSize }{
		{arch.Page4K, arch.Page4K},
		{arch.Page4K, arch.Page2M},
		{arch.Page4K, arch.Page1G},
		{arch.Page2M, arch.Page4K},
		{arch.Page2M, arch.Page2M},
		{arch.Page2M, arch.Page1G},
	}
	tenantCounts := []int{1, 2, 4}

	// Unit layout: [2*len(params)] ladder (native, nested interleaved),
	// then the matrix runs, then the tenant runs.
	nSweep := 2 * len(params)
	nUnits := nSweep + len(matrix) + len(tenantCounts)
	sweepRes := make([]RunResult, nSweep)
	matrixRes := make([]VirtMatrixRow, len(matrix))
	tenantRes := make([]VirtTenantRow, len(tenantCounts))

	// The matrix and tenant studies measure one mid-ladder rung: large
	// enough to pressure the TLBs, small enough to keep 6 extra machines
	// cheap.
	midParam := params[(len(params)-1)/2]

	err = forEachUnit(&cfg, nUnits, func(i int) error {
		switch {
		case i < nSweep:
			u := cfg
			ps := arch.Page4K
			if i%2 == 1 {
				u.System = virtualize(u.System, arch.Page4K)
			}
			r, err := Run(&u, spec, params[i/2], ps)
			if err != nil {
				return err
			}
			sweepRes[i] = r
			return nil
		case i < nSweep+len(matrix):
			j := i - nSweep
			u := cfg
			u.System = virtualize(u.System, matrix[j].ept)
			r, err := Run(&u, spec, midParam, matrix[j].guest)
			if err != nil {
				return err
			}
			matrixRes[j] = VirtMatrixRow{
				GuestPages:   matrix[j].guest,
				EPTPages:     matrix[j].ept,
				Footprint:    r.Footprint,
				WCPI:         r.Metrics.WCPI,
				LoadsPerWalk: r.Metrics.Eq1.WalkerLoadsPerWalk,
				EPTShare:     r.Metrics.EPTShare,
			}
			return nil
		default:
			j := i - nSweep - len(matrix)
			row, err := runMultiTenant(&cfg, tenantCounts[j])
			if err != nil {
				return err
			}
			tenantRes[j] = row
			return nil
		}
	})
	if err != nil {
		return nil, err
	}

	r := &VirtResult{Matrix: matrixRes, Tenants: tenantRes}
	for i := 0; i < len(params); i++ {
		nat, nst := sweepRes[2*i], sweepRes[2*i+1]
		row := VirtSweepRow{
			Param:              nat.Param,
			Footprint:          nat.Footprint,
			WCPINative:         nat.Metrics.WCPI,
			WCPINested:         nst.Metrics.WCPI,
			EPTShare:           nst.Metrics.EPTShare,
			NTLBHitRate:        nst.Metrics.NTLBHitRate,
			LoadsPerWalkNative: nat.Metrics.Eq1.WalkerLoadsPerWalk,
			LoadsPerWalkNested: nst.Metrics.Eq1.WalkerLoadsPerWalk,
		}
		if nat.Metrics.WCPI > 0 {
			row.Ratio = nst.Metrics.WCPI / nat.Metrics.WCPI
		}
		r.Sweep = append(r.Sweep, row)
	}
	return r, nil
}

// tenantSliceAccesses is how many accesses one tenant retires before the
// scheduler switches to the next — the guest time slice, in accesses.
const tenantSliceAccesses = 20_000

// tenantFootprintBytes is each tenant's array size: several times STLB
// reach under 4KB pages, so the TLBs (and the nTLB) are genuinely
// pressured.
const tenantFootprintBytes = 16 * arch.MB

// runMultiTenant measures the consolidation study's one data point: n
// guest address spaces over one shared EPT, round-robined in
// tenantSliceAccesses slices until the config's access budget is spent.
// Workload instances are single-run, so the tenants run a direct
// machine-level kernel: uniform random loads over a per-tenant array
// (the uniform-synth access pattern, restated per tenant).
func runMultiTenant(cfg *RunConfig, n int) (VirtTenantRow, error) {
	sys := cfg.System
	if !sys.Virt.Enabled {
		sys = virtualize(sys, arch.Page4K)
	}
	if sys.PhysMemBytes < 256*arch.GB {
		sys.PhysMemBytes = 256 * arch.GB
	}
	m, err := machine.New(sys, arch.Page4K, cfg.Seed)
	if err != nil {
		return VirtTenantRow{}, err
	}
	defer m.Release()
	unit := fmt.Sprintf("multi-tenant n=%d seed=%d%s", n, cfg.Seed, cfg.UnitTag)
	cfg.Events.UnitStarted()
	for t := 1; t < n; t++ {
		if _, err := m.AddTenant(); err != nil {
			return VirtTenantRow{}, err
		}
	}

	// Setup (untimed): every tenant builds and pre-faults its array.
	words := uint64(tenantFootprintBytes / 8)
	bases := make([]arch.VAddr, n)
	rngs := make([]*rand.Rand, n)
	for t := 0; t < n; t++ {
		if err := m.SwitchTenant(t); err != nil {
			return VirtTenantRow{}, err
		}
		base, err := m.Malloc(tenantFootprintBytes)
		if err != nil {
			return VirtTenantRow{}, err
		}
		bases[t] = base
		rngs[t] = rand.New(rand.NewSource(cfg.Seed + int64(t)*7919))
		for off := uint64(0); off < tenantFootprintBytes; off += 4096 {
			m.Poke64(base+arch.VAddr(off), off)
		}
	}

	// Measured region: round-robin slices until the budget is spent.
	start := m.Counters()
	startCycle := m.CycleCount()
	var switches uint64
	spent := uint64(0)
	for t := 0; spent < cfg.Budget; t = (t + 1) % n {
		if err := m.SwitchTenant(t); err != nil {
			return VirtTenantRow{}, err
		}
		if n > 1 {
			switches++
		}
		slice := uint64(tenantSliceAccesses)
		if cfg.Budget-spent < slice {
			slice = cfg.Budget - spent
		}
		rng := rngs[t]
		for i := uint64(0); i < slice; i++ {
			m.Load64(bases[t] + arch.VAddr(rng.Uint64()%words*8))
		}
		spent += slice
	}
	delta := perf.Delta(start, m.Counters())
	mt := perf.Compute(delta)
	ev := unitEvent(unit, delta, mt)
	if cfg.Refute != nil {
		// The consolidation kernel bypasses Run, so it feeds the refute
		// checker and the live sink itself: same evidence shape,
		// tenant-count unit name.
		u := refute.Unit{
			Name:         unit,
			StartCycle:   startCycle,
			EndCycle:     m.CycleCount(),
			Virt:         true,
			WrongPathCap: wrongPathCap(m),
			Counters:     delta,
			Metrics:      mt,
		}
		out := cfg.Refute.CheckUnit(u, m.TraceProcess())
		ev.IdentitiesChecked, ev.IdentitiesViolated = uint64(out.Checked), uint64(len(out.Violations))
	}
	publishUnit(cfg, ev, delta)
	cfg.logf("  run multi-tenant          n=%-8d %-4s footprint=%-9s wcpi=%.4f ntlb=%.3f",
		n, arch.Page4K, arch.FormatBytes(uint64(n)*tenantFootprintBytes), mt.WCPI, mt.NTLBHitRate)
	return VirtTenantRow{
		Tenants:     n,
		WCPI:        mt.WCPI,
		NTLBHitRate: mt.NTLBHitRate,
		EPTShare:    mt.EPTShare,
		Switches:    switches,
	}, nil
}

// Tables renders the three studies.
func (r *VirtResult) Tables() []*Table {
	t1 := NewTable("Virtualization: native vs nested WCPI ("+virtSweepWorkload+", 4KB guest / 4KB EPT)",
		"footprint", "log10", "WCPI native", "WCPI nested", "ratio", "EPT share", "nTLB hit", "loads/walk nat", "loads/walk nest")
	for _, row := range r.Sweep {
		t1.Row(arch.FormatBytes(row.Footprint), f(math.Log10(float64(row.Footprint)), 2),
			f(row.WCPINative, 4), f(row.WCPINested, 4), f(row.Ratio, 2),
			f(row.EPTShare, 3), f(row.NTLBHitRate, 3),
			f(row.LoadsPerWalkNative, 2), f(row.LoadsPerWalkNested, 2))
	}
	t2 := NewTable("Virtualization: guest x EPT page-size matrix ("+virtSweepWorkload+", mid rung)",
		"guest pages", "EPT pages", "WCPI", "loads/walk", "EPT share")
	for _, row := range r.Matrix {
		t2.Row(row.GuestPages.String(), row.EPTPages.String(),
			f(row.WCPI, 4), f(row.LoadsPerWalk, 2), f(row.EPTShare, 3))
	}
	t3 := NewTable(fmt.Sprintf("Virtualization: multi-tenant round-robin over one shared EPT (%s per tenant, %d-access slices)",
		arch.FormatBytes(tenantFootprintBytes), tenantSliceAccesses),
		"tenants", "WCPI", "nTLB hit", "EPT share", "switches")
	for _, row := range r.Tenants {
		t3.Row(fmt.Sprint(row.Tenants), f(row.WCPI, 4), f(row.NTLBHitRate, 3),
			f(row.EPTShare, 3), fmt.Sprint(row.Switches))
	}
	return []*Table{t1, t2, t3}
}

// Render emits all three tables.
func (r *VirtResult) Render() string { return RenderTables(r.Tables(), "") }
