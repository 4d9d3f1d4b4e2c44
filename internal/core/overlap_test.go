package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/machine"
	"atscale/internal/perf"
	"atscale/internal/refute"
	"atscale/internal/telemetry"
	"atscale/internal/workloads"
)

// runInline is runSteady with the timing back end on the caller's
// goroutine: RunPhased without the overlap.
func runInline(_ context.Context, m *machine.Machine, inst workloads.Instance, budget uint64) {
	m.BeginPhase(workloads.PhaseSteady)
	inst.Run(budget)
	m.EndPhase()
}

// pokeSpec is a workload that peeks and pokes inside its measured
// region, between timed loads and stores: the quiet prefaults stream to
// the back end mid-run, fresh pages are first touched both ways, and the
// branch outcomes follow the data, so a wrong word shows in the counters.
func pokeSpec() *workloads.Spec {
	return &workloads.Spec{
		Program: "poke", Generator: "rand", Suite: "synthetic", Kind: "test",
		Ladder: []uint64{1 << 16},
		Build: func(m *machine.Machine, n uint64) (workloads.Instance, error) {
			a, err := workloads.NewArray(m, n)
			if err != nil {
				return nil, err
			}
			workloads.FillRuns(n/4, func(s uint64, runs [][]uint64) {
				for j := range runs[0] {
					runs[0][j] = (s + uint64(j)) * 3
				}
			}, a)
			return &pokeInstance{m: m, a: a}, nil
		},
	}
}

type pokeInstance struct {
	m *machine.Machine
	a workloads.Array
}

func (p *pokeInstance) Run(budget uint64) {
	rng := workloads.NewRNG(5)
	b := workloads.NewBudget(p.m, budget)
	var sum uint64
	for !b.Done() {
		i := rng.Next() % p.a.Len()
		v := p.a.Get(i)
		p.m.Ops(3)
		p.m.Branch(0x40, v&1 == 0)
		switch rng.Next() % 8 {
		case 0:
			p.a.Poke(rng.Next()%p.a.Len(), v+sum)
		case 1:
			sum += p.a.Peek(rng.Next() % p.a.Len())
		default:
			p.a.Set(i, v+1)
		}
	}
}

// overlapOutcome is everything a unit publishes: counters, interval
// rows, drained samples, the exported timeline's digest and the refute
// report.
type overlapOutcome struct {
	counters perf.Counters
	rows     []perf.IntervalRow
	samples  []perf.Sample
	timeline string
	refute   string
}

func overlapRun(t *testing.T, mutate func(*RunConfig), spec *workloads.Spec, param uint64, ps arch.PageSize) overlapOutcome {
	t.Helper()
	cfg := testConfig()
	cfg.Budget = 30_000
	cfg.Interval = 5_000
	cfg.SamplePeriod = refuteSamplePeriod
	cfg.SampleBuffer = refuteSampleRing
	cfg.Trace = telemetry.New()
	cfg.Refute = refute.NewChecker(CampaignIdentities()...)
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := Run(&cfg, spec, param, ps)
	if err != nil {
		t.Fatal(err)
	}
	var tl bytes.Buffer
	if err := cfg.Trace.Export(&tl); err != nil {
		t.Fatal(err)
	}
	return overlapOutcome{
		counters: r.Counters,
		rows:     r.Timeline,
		samples:  r.Samples,
		timeline: fmt.Sprintf("%x", sha256.Sum256(tl.Bytes())),
		refute:   string(cfg.Refute.Report().JSON()),
	}
}

// TestOverlapMatchesInline: a unit whose timing back end runs on its own
// goroutine publishes exactly what the same unit run inline publishes,
// across every walk engine, nested paging, tenant switches, promotion and
// quiet accesses inside the measured region.
func TestOverlapMatchesInline(t *testing.T) {
	cases := []struct {
		name   string
		spec   *workloads.Spec
		param  uint64
		ps     arch.PageSize
		mutate func(*RunConfig)
	}{
		{name: "radix-4k", spec: mustSpec(t, "gups-rand"), ps: arch.Page4K},
		{name: "radix-2m", spec: mustSpec(t, "bfs-urand"), ps: arch.Page2M},
		{name: "victima", spec: mustSpec(t, "mcf-rand"), ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.Scheme = "victima" }},
		{name: "mitosis", spec: mustSpec(t, "gups-rand"), ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.Scheme, c.System.NUMA.Nodes = "mitosis", 2 }},
		{name: "dramcache", spec: mustSpec(t, "gups-rand"), ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.Scheme = "dramcache" }},
		{name: "hashed", spec: mustSpec(t, "mcf-rand"), ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System.PageTable = "hashed" }},
		{name: "virt-ept4k", spec: mustSpec(t, "gups-rand"), ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System = virtualize(c.System, arch.Page4K) }},
		{name: "virt-ept2m", spec: mustSpec(t, "mcf-rand"), ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.System = virtualize(c.System, arch.Page2M) }},
		{name: "tenants", spec: tenantSpec(2024), param: 4, ps: arch.Page4K,
			mutate: virtualizeTenants},
		{name: "promo", spec: mustSpec(t, "gups-rand"), param: 26, ps: arch.Page4K,
			mutate: func(c *RunConfig) { c.EnablePromotion = true; c.Budget = 100_000 }},
		{name: "poke", spec: pokeSpec(), ps: arch.Page4K},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			param := c.param
			if param == 0 {
				param = c.spec.Ladder[0]
			}
			overlapped := overlapRun(t, c.mutate, c.spec, param, c.ps)
			runSteady = runInline
			defer func() { runSteady = workloads.RunPhased }()
			inline := overlapRun(t, c.mutate, c.spec, param, c.ps)

			if c.name == "promo" && inline.counters.Get(perf.THPPromotions) == 0 {
				t.Error("no block was promoted: the promotion case checks nothing")
			}
			if overlapped.counters != inline.counters {
				t.Errorf("counters differ:\noverlapped %s\ninline     %s",
					overlapped.counters.Format(), inline.counters.Format())
			}
			if len(inline.rows) == 0 || !reflect.DeepEqual(overlapped.rows, inline.rows) {
				t.Errorf("interval rows differ (%d overlapped, %d inline)", len(overlapped.rows), len(inline.rows))
			}
			if len(inline.samples) == 0 || !reflect.DeepEqual(overlapped.samples, inline.samples) {
				t.Errorf("samples differ (%d overlapped, %d inline)", len(overlapped.samples), len(inline.samples))
			}
			if overlapped.timeline != inline.timeline {
				t.Errorf("timeline digests differ: %s vs %s", overlapped.timeline, inline.timeline)
			}
			if overlapped.refute != inline.refute {
				t.Errorf("refute reports differ:\n%s\n%s", overlapped.refute, inline.refute)
			}
		})
	}
}
