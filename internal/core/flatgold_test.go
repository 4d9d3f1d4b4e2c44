package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/machine"
	"atscale/internal/perf"
	"atscale/internal/refute"
	"atscale/internal/telemetry"
	"atscale/internal/workloads"
	_ "atscale/internal/workloads/all"
)

// The flat-layout goldens lock the simulator's observable outputs —
// counter deltas, exported timelines, and refute reports — across the
// hot-path refactor (direct-indexed physical memory, single-pass
// walker, zero-alloc hierarchies, machine reuse). They were captured
// from the pre-refactor tree and must never change: any optimization
// that shifts a byte here changed the model, not just its speed.
//
// Regenerate (only when the *model* deliberately changes) with:
//
//	UPDATE_FLATGOLD=1 go test ./internal/core -run TestFlatGold
const flatgoldDir = "testdata/flatgold"

// flatgoldCase is one configuration of the differential matrix. It
// deliberately crosses every walker/page-table/policy dimension the
// refactor touches: the radix walker at 4/5 levels, all three page-size
// policies, hashed page tables, nested paging (4 KB guest pages over 4 KB
// and 2 MB EPT leaves, 2 MB guest pages over 1 GB EPT leaves), mitosis
// replicas on two NUMA nodes, Victima's PTE blocks, and WCPI-guided
// promotion (which exercises machine-internal state the quiet path
// caches). The mcf and kron cases pin inputs most of whose pages the
// measured region never reads.
type flatgoldCase struct {
	name     string
	workload string
	// param is the ladder point; 0 picks the workload's first.
	param  uint64
	ps     arch.PageSize
	mutate func(*RunConfig)
	// promotes requires the unit to collapse at least one block, so the
	// golden pins the promotion path itself.
	promotes bool
}

// flatgoldCases lists the matrix so that every case's machine config
// differs from the one before it, the last case's from the first's: the
// reconfigured-* pass runs each case on the machine its predecessor
// parked. The order crosses hashed to radix, nested to native and two
// NUMA nodes to one.
func flatgoldCases() []flatgoldCase {
	return []flatgoldCase{
		{name: "native-4k", workload: "gups-rand", ps: arch.Page4K},
		{name: "hashed", workload: "mcf-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.PageTable = "hashed" }},
		{name: "native-2m", workload: "gups-rand", ps: arch.Page2M},
		{name: "lvl5", workload: "stride-synth", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.PagingLevels = 5 }},
		{name: "native-1g", workload: "uniform-synth", ps: arch.Page1G},
		{name: "virt-ept4k", workload: "gups-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System = virtualize(c.System, arch.Page4K) }},
		{name: "promo", workload: "gups-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.EnablePromotion = true }},
		{name: "virt-ept2m", workload: "zipf-synth", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System = virtualize(c.System, arch.Page2M) }},
		// "promo" never collapses a block; this footprint and budget do.
		{name: "promo-live", workload: "gups-rand", param: 26, ps: arch.Page4K,
			mutate:   func(c *RunConfig) { c.EnablePromotion = true; c.Budget = 100_000 },
			promotes: true},
		// The starved 2 MB TLBs (no STLB) make most accesses to the 16 MB
		// footprint walk, so the warm guest PSCs, nTLB and EPT PSCs all
		// serve walks here.
		{name: "virt-g2m-ept1g", workload: "uniform-synth", ps: arch.Page2M,
			mutate: func(c *RunConfig) {
				c.System = virtualize(c.System, arch.Page1G)
				c.System.Virt.GuestPages = arch.Page2M
				c.System.L1TLB[arch.Page2M] = arch.TLBGeometry{Entries: 2, Ways: 2}
				c.System.STLB = arch.TLBGeometry{}
			}},
		{name: "sampling", workload: "stride-synth", ps: arch.Page4K,
			mutate: func(c *RunConfig) {
				c.SamplePeriod = refuteSamplePeriod
				c.SampleBuffer = refuteSampleRing
			}},
		// The thread migrates between the nodes six times within the
		// budget, so both replica walk counters are live.
		{name: "mitosis-numa2", workload: "gups-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) {
				c.System.Scheme = "mitosis"
				c.System.NUMA.Nodes = 2
				c.System.NUMA.MigrateEvery = 10_000
			}},
		// mcf's arc arrays span 512 pages each at this rung, and the
		// budget's pricing scan reads the first few dozen of them.
		{name: "mcf-4k", workload: "mcf-rand", param: 1 << 15, ps: arch.Page4K},
		{name: "mcf-victima", workload: "mcf-rand", param: 1 << 15, ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.Scheme = "victima" }},
		// At scale 15 the kron CSR's neighbour array spans 1 724 pages,
		// of which the budget's traversals read a fraction; tc's runs on
		// the degree-relabelled graph.
		{name: "bc-kron-4k", workload: "bc-kron", param: 15, ps: arch.Page4K},
		{name: "tc-kron-victima", workload: "tc-kron", param: 15, ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.Scheme = "victima" }},
	}
}

// flatgoldRun runs case c's unit, on pool when it is not nil.
func flatgoldRun(t *testing.T, c flatgoldCase, pool *machinePool) (RunConfig, *workloads.Spec, uint64, RunResult) {
	t.Helper()
	cfg := testConfig()
	cfg.Budget = 60_000
	if c.mutate != nil {
		c.mutate(&cfg)
	}
	cfg.machines = pool
	spec := mustSpec(t, c.workload)
	param := c.param
	if param == 0 {
		param = spec.Ladder[0]
	}
	r, err := Run(&cfg, spec, param, c.ps)
	if err != nil {
		t.Fatalf("flatgold %s: %v", c.name, err)
	}
	return cfg, spec, param, r
}

// flatgoldCounters renders one case's full result as a stable text
// dump: the unit name plus every counter (zeros included, so event
// reordering or a newly-missing increment cannot hide).
//
// With a pool, the case must run on the one machine the pool holds, and
// reconfigure says whether that machine must first change config.
func flatgoldCounters(t *testing.T, c flatgoldCase, pool *machinePool, reconfigure bool) string {
	t.Helper()
	var parked []*machine.Machine
	var before arch.SystemConfig
	if pool != nil {
		if parked = pooled(pool); len(parked) == 1 {
			before = *parked[0].Config()
		}
	}
	cfg, spec, param, r := flatgoldRun(t, c, pool)
	if c.promotes && r.Counters.Get(perf.THPPromotions) == 0 {
		t.Errorf("flatgold %s: no block was promoted: the case checks nothing of promotion", c.name)
	}
	if pool != nil {
		after := pooled(pool)
		if len(parked) != 1 || len(after) != 1 || after[0] != parked[0] {
			t.Fatalf("flatgold %s: the unit did not run on the pooled machine", c.name)
		}
		if changed := *after[0].Config() != before; reconfigure && !changed {
			t.Fatalf("flatgold %s: the pooled machine already had the unit's config", c.name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "unit: %s\n", unitName(&cfg, spec, param, c.ps))
	fmt.Fprintf(&b, "footprint: %d\n", r.Footprint)
	fmt.Fprintf(&b, "samples: %d dropped: %d droppedWeight: %d\n",
		len(r.Samples), r.SampleDropped, r.SampleDroppedWeight)
	b.WriteString(r.Counters.Format())
	return b.String()
}

// flatgoldDirty parks on pool a machine of case c's own config that ran
// a unit under another page policy or, where the machine's config pins
// the policy, another seed: hashed tables back 4 KB heaps only, and a
// nested machine's config records its guest policy.
func flatgoldDirty(t *testing.T, c flatgoldCase, pool *machinePool) {
	t.Helper()
	probe := testConfig()
	if c.mutate != nil {
		c.mutate(&probe)
	}
	dirty := c
	dirty.param = 0
	switch {
	case probe.System.PageTable == "hashed" || probe.System.Virt.Enabled:
		dirty.mutate = func(cfg *RunConfig) {
			if c.mutate != nil {
				c.mutate(cfg)
			}
			cfg.Seed++
		}
	case c.ps == arch.Page2M:
		dirty.ps = arch.Page4K
	default:
		dirty.ps = arch.Page2M
	}
	flatgoldRun(t, dirty, pool)
}

// flatgoldTimeline exports the traced wcpi campaign (the same campaign
// the timeline determinism tests run) as the timeline golden.
func flatgoldTimeline(t *testing.T) []byte {
	t.Helper()
	return timelineCampaign(t, 1)
}

// flatgoldRefute runs a two-variant identity sweep (native + nested
// paging) and returns the checker's deterministic JSON report.
func flatgoldRefute(t *testing.T) []byte {
	t.Helper()
	checker := refute.NewChecker()
	cfg := testConfig()
	cfg.Budget = 40_000
	cfg.Refute = checker
	spec := mustSpec(t, "uniform-synth")
	if _, err := SweepOverhead(&cfg, spec); err != nil {
		t.Fatal(err)
	}
	vcfg := testConfig()
	vcfg.Budget = 40_000
	vcfg.Refute = checker
	vcfg.UnitTag = " @virt"
	vcfg.System = virtualize(vcfg.System, arch.Page2M)
	if _, err := Run(&vcfg, spec, spec.Ladder[0], arch.Page4K); err != nil {
		t.Fatal(err)
	}
	return checker.Report().JSON()
}

// flatgoldCompare asserts got matches the committed golden, or rewrites
// the golden when UPDATE_FLATGOLD=1.
func flatgoldCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(flatgoldDir, name)
	if os.Getenv("UPDATE_FLATGOLD") != "" {
		if err := os.MkdirAll(flatgoldDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with UPDATE_FLATGOLD=1 to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from pre-refactor golden (%d vs %d bytes)\n"+
			"the hot-path refactor must be byte-identical; diff the file to find the drift",
			name, len(got), len(want))
		diffPath := path + ".got"
		if err := os.WriteFile(diffPath, got, 0o644); err == nil {
			t.Logf("wrote divergent output to %s", diffPath)
		}
	}
}

// TestFlatGoldCounters locks the per-unit counter deltas across the
// configuration matrix.
// The renewed-* pass runs every case again on a pooled machine that
// first ran a dirtying unit of the same config under another page policy
// (or, where the machine's config pins the policy, another seed). The
// reconfigured-* pass runs every case on a pooled machine that first ran
// the case before it, so the machine changes config. Both are held to
// the same golden.
func TestFlatGoldCounters(t *testing.T) {
	cases := flatgoldCases()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			flatgoldCompare(t, "counters-"+c.name+".txt", []byte(flatgoldCounters(t, c, nil, false)))
		})
	}
	for _, c := range cases {
		t.Run("renewed-"+c.name, func(t *testing.T) {
			pool := newMachinePool(1)
			flatgoldDirty(t, c, pool)
			flatgoldCompare(t, "counters-"+c.name+".txt", []byte(flatgoldCounters(t, c, pool, false)))
		})
	}
	for i, c := range cases {
		t.Run("reconfigured-"+c.name, func(t *testing.T) {
			pool := newMachinePool(1)
			flatgoldRun(t, cases[(i+len(cases)-1)%len(cases)], pool)
			flatgoldCompare(t, "counters-"+c.name+".txt", []byte(flatgoldCounters(t, c, pool, true)))
		})
	}
}

// TestFlatGoldTimeline locks the exported campaign timeline bytes. The
// export is ~11 MB, so the golden stores its SHA-256 plus the length:
// that still pins every byte without committing megabytes of JSON.
func TestFlatGoldTimeline(t *testing.T) {
	flatgoldCompare(t, "timeline.sha256", timelineDigest(t, flatgoldTimeline(t)))
}

// TestFlatGoldTimelineVirt locks the timeline of one traced nested unit:
// the guest- and EPT-dimension walker tracks, their cross-synced clocks,
// nTLB-hit instants and every walk outcome.
func TestFlatGoldTimelineVirt(t *testing.T) {
	flatgoldCompare(t, "timeline-virt.sha256", timelineDigest(t, virtTimeline(t)))
}

// timelineDigest validates an exported timeline and renders its SHA-256
// plus length.
func timelineDigest(t *testing.T, data []byte) []byte {
	t.Helper()
	if _, err := telemetry.Validate(data); err != nil {
		t.Fatalf("timeline invalid before comparison: %v", err)
	}
	return []byte(fmt.Sprintf("sha256:%x len:%d\n", sha256.Sum256(data), len(data)))
}

// TestFlatGoldRefute locks the refute checker's JSON report over a
// native sweep plus a nested-paging unit.
func TestFlatGoldRefute(t *testing.T) {
	flatgoldCompare(t, "refute.json", flatgoldRefute(t))
}

// TestFlatGoldCampaign locks the campaign artifact of the overhead
// sweep: every point's derived numbers in ladder order, exactly the
// dataset the figure pipeline consumes.
func TestFlatGoldCampaign(t *testing.T) {
	cfg := testConfig()
	cfg.Budget = 40_000
	spec := mustSpec(t, "stride-synth")
	pts, err := SweepOverhead(&cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("workload,param,footprint,cpi4k,cpi2m,cpi1g,reloverhead,wcpi4k\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%s,%d,%d,%.9g,%.9g,%.9g,%.9g,%.9g\n",
			p.Workload, p.Param, p.Footprint,
			p.CPI4K, p.CPI2M, p.CPI1G, p.RelOverhead, p.M4K.WCPI)
	}
	flatgoldCompare(t, "campaign-stride.csv", []byte(b.String()))
}

var _ = workloads.Tiny // keep the import pinned alongside testConfig
