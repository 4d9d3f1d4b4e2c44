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
// and 2 MB EPT leaves, 2 MB guest pages over 1 GB EPT leaves), and
// WCPI-guided promotion (which exercises machine-internal state the
// quiet path caches).
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

func flatgoldCases() []flatgoldCase {
	return []flatgoldCase{
		{name: "native-4k", workload: "gups-rand", ps: arch.Page4K},
		{name: "native-2m", workload: "gups-rand", ps: arch.Page2M},
		{name: "native-1g", workload: "uniform-synth", ps: arch.Page1G},
		{name: "lvl5", workload: "stride-synth", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.PagingLevels = 5 }},
		{name: "hashed", workload: "mcf-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.PageTable = "hashed" }},
		{name: "virt-ept4k", workload: "gups-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System = virtualize(c.System, arch.Page4K) }},
		{name: "virt-ept2m", workload: "zipf-synth", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System = virtualize(c.System, arch.Page2M) }},
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
		{name: "promo", workload: "gups-rand", ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.EnablePromotion = true }},
		// "promo" never collapses a block; this footprint and budget do.
		{name: "promo-live", workload: "gups-rand", param: 26, ps: arch.Page4K,
			mutate:   func(c *RunConfig) { c.EnablePromotion = true; c.Budget = 100_000 },
			promotes: true},
		{name: "sampling", workload: "stride-synth", ps: arch.Page4K,
			mutate: func(c *RunConfig) {
				c.SamplePeriod = refuteSamplePeriod
				c.SampleBuffer = refuteSampleRing
			}},
	}
}

// flatgoldCounters renders one case's full result as a stable text
// dump: the unit name plus every counter (zeros included, so event
// reordering or a newly-missing increment cannot hide).
//
// With a pool, a dirtying unit runs first and the case must then run on
// the machine it parked, renewed.
func flatgoldCounters(t *testing.T, c flatgoldCase, pool *machinePool) string {
	t.Helper()
	cfg := testConfig()
	cfg.Budget = 60_000
	if c.mutate != nil {
		c.mutate(&cfg)
	}
	spec := mustSpec(t, c.workload)
	param := c.param
	if param == 0 {
		param = spec.Ladder[0]
	}
	var parked []*machine.Machine
	if pool != nil {
		dirty := cfg
		dirty.machines = pool
		dirtyPS := arch.Page2M
		if c.ps == arch.Page2M {
			dirtyPS = arch.Page4K
		}
		// Hashed tables back 4 KB heaps only, and a nested machine's
		// config records its guest policy, so those dirty under
		// another seed instead.
		if cfg.System.PageTable == "hashed" || cfg.System.Virt.Enabled {
			dirtyPS, dirty.Seed = c.ps, cfg.Seed+1
		}
		if _, err := Run(&dirty, spec, spec.Ladder[0], dirtyPS); err != nil {
			t.Fatalf("flatgold %s dirtying unit: %v", c.name, err)
		}
		cfg.machines = pool
		parked = pooled(pool)
	}
	r, err := Run(&cfg, spec, param, c.ps)
	if err != nil {
		t.Fatalf("flatgold %s: %v", c.name, err)
	}
	if c.promotes && r.Counters.Get(perf.THPPromotions) == 0 {
		t.Errorf("flatgold %s: no block was promoted: the case checks nothing of promotion", c.name)
	}
	if pool != nil {
		if after := pooled(pool); len(parked) != 1 || len(after) != 1 || after[0] != parked[0] {
			t.Fatalf("flatgold %s: the unit did not run on the renewed machine", c.name)
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
// (or, where the machine's config pins the policy, another seed), and
// holds it to the same golden.
func TestFlatGoldCounters(t *testing.T) {
	for _, c := range flatgoldCases() {
		t.Run(c.name, func(t *testing.T) {
			flatgoldCompare(t, "counters-"+c.name+".txt", []byte(flatgoldCounters(t, c, nil)))
		})
	}
	for _, c := range flatgoldCases() {
		t.Run("renewed-"+c.name, func(t *testing.T) {
			flatgoldCompare(t, "counters-"+c.name+".txt", []byte(flatgoldCounters(t, c, newMachinePool(1))))
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
