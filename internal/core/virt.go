package core

import (
	"fmt"
	"math"
	"math/rand"

	"atscale/internal/arch"
	"atscale/internal/machine"
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

// virtualizeTenants puts a consolidation unit's config under nested
// paging: a config already virtualized keeps its EPT, any other gets
// 4KB EPT leaves.
func virtualizeTenants(c *RunConfig) {
	if !c.System.Virt.Enabled {
		c.System = virtualize(c.System, arch.Page4K)
	}
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
	// The matrix and tenant studies measure one mid-ladder rung: large
	// enough to pressure the TLBs, small enough to keep the extra
	// machines cheap. The matrix's first cell (4KB guest / 4KB EPT) is
	// the ladder's nested mid-rung unit, so it is read from the ladder
	// rather than simulated again, unless a pinned guest page size other
	// than 4KB moved the ladder off it.
	mid := (len(params) - 1) / 2
	matrix := []struct{ guest, ept arch.PageSize }{
		{arch.Page4K, arch.Page4K},
		{arch.Page4K, arch.Page2M},
		{arch.Page4K, arch.Page1G},
		{arch.Page2M, arch.Page4K},
		{arch.Page2M, arch.Page2M},
		{arch.Page2M, arch.Page1G},
	}
	tenantCounts := []int{1, 2, 4}

	first := 1
	if cfg.GuestPages != nil && *cfg.GuestPages != arch.Page4K {
		first = 0
	}

	// Unit layout: [2*len(params)] ladder (native, nested interleaved),
	// then the matrix cells from first on, then the tenant runs.
	nSweep := 2 * len(params)
	nMatrix := len(matrix) - first
	res := make([]RunResult, nSweep+nMatrix+len(tenantCounts))
	err = forEachUnit(&cfg, len(res), func(i int) error {
		u := cfg
		unitSpec, param, ps := spec, uint64(0), arch.Page4K
		switch {
		case i < nSweep:
			param = params[i/2]
			if i%2 == 1 {
				u.System = virtualize(u.System, arch.Page4K)
			} else {
				u.System.Virt = arch.VirtConfig{} // native, even in a nested session
			}
		case i < nSweep+nMatrix:
			c := matrix[i-nSweep+first]
			u.System = virtualize(u.System, c.ept)
			// The unit name encodes the guest page size but not the
			// EPT leaf, which the tag adds. The cells are the guest
			// axis, so a pinned guest page size does not apply.
			u.UnitTag += " +ept" + c.ept.String()
			u.GuestPages = nil
			param, ps = params[mid], c.guest
		default:
			virtualizeTenants(&u)
			unitSpec, param = tenantSpec(u.Seed), uint64(tenantCounts[i-nSweep-nMatrix])
		}
		r, err := Run(&u, unitSpec, param, ps)
		res[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}

	r := &VirtResult{}
	for i := 0; i < len(params); i++ {
		nat, nst := res[2*i], res[2*i+1]
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
	for j, c := range matrix {
		m := &res[2*mid+1]
		if j >= first {
			m = &res[nSweep+j-first]
		}
		r.Matrix = append(r.Matrix, VirtMatrixRow{
			GuestPages:   c.guest,
			EPTPages:     c.ept,
			Footprint:    m.Footprint,
			WCPI:         m.Metrics.WCPI,
			LoadsPerWalk: m.Metrics.Eq1.WalkerLoadsPerWalk,
			EPTShare:     m.Metrics.EPTShare,
		})
	}
	for j, n := range tenantCounts {
		r.Tenants = append(r.Tenants, tenantRow(n, cfg.Budget, &res[nSweep+nMatrix+j]))
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

// tenantSpec is the consolidation study's workload: param guest address
// spaces over one shared EPT, each running uniform random loads over
// its own tenantFootprintBytes array (the uniform-synth access pattern),
// round-robined in tenantSliceAccesses slices until the budget is
// spent. Tenant t draws from seed + t*7919. It needs a virtualized
// machine, so it stays out of the workload registry.
func tenantSpec(seed int64) *workloads.Spec {
	return &workloads.Spec{
		Program:   "multi-tenant",
		Generator: "urand",
		Suite:     "synthetic",
		Kind:      "consolidated guests",
		Build: func(m *machine.Machine, param uint64) (workloads.Instance, error) {
			n := int(param)
			if n < 1 {
				return nil, fmt.Errorf("multi-tenant: %d tenants", param)
			}
			for t := 1; t < n; t++ {
				if _, err := m.AddTenant(); err != nil {
					return nil, err
				}
			}
			// Setup (untimed): every tenant builds and pre-faults its
			// array.
			in := &tenantInstance{m: m, bases: make([]arch.VAddr, n), rngs: make([]*rand.Rand, n)}
			for t := 0; t < n; t++ {
				if err := m.SwitchTenant(t); err != nil {
					return nil, err
				}
				base, err := m.Malloc(tenantFootprintBytes)
				if err != nil {
					return nil, err
				}
				in.bases[t] = base
				in.rngs[t] = rand.New(rand.NewSource(seed + int64(t)*7919))
				for off := uint64(0); off < tenantFootprintBytes; off += 4096 {
					m.Poke64(base+arch.VAddr(off), off)
				}
			}
			return in, nil
		},
	}
}

// tenantInstance is a built consolidation unit: one array base and one
// random source per tenant.
type tenantInstance struct {
	m     *machine.Machine
	bases []arch.VAddr
	rngs  []*rand.Rand
}

// Run round-robins the tenants in tenantSliceAccesses slices until the
// budget is spent.
func (in *tenantInstance) Run(budget uint64) {
	n := len(in.bases)
	words := uint64(tenantFootprintBytes / 8)
	spent := uint64(0)
	for t := 0; spent < budget; t = (t + 1) % n {
		// Build switched to every tenant, so this switch cannot fail.
		_ = in.m.SwitchTenant(t)
		slice := uint64(tenantSliceAccesses)
		if budget-spent < slice {
			slice = budget - spent
		}
		rng := in.rngs[t]
		for i := uint64(0); i < slice; i++ {
			in.m.Load64(in.bases[t] + arch.VAddr(rng.Uint64()%words*8))
		}
		spent += slice
	}
}

// tenantRow is the table row of an n-tenant unit that spent budget
// accesses: with more than one tenant, every slice starts with a guest
// context switch.
func tenantRow(n int, budget uint64, r *RunResult) VirtTenantRow {
	row := VirtTenantRow{
		Tenants:     n,
		WCPI:        r.Metrics.WCPI,
		NTLBHitRate: r.Metrics.NTLBHitRate,
		EPTShare:    r.Metrics.EPTShare,
	}
	if n > 1 {
		row.Switches = (budget + tenantSliceAccesses - 1) / tenantSliceAccesses
	}
	return row
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
