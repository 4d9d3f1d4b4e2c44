package main

import (
	"math"
	"sort"

	"atscale/internal/stats"
)

// metricDecl declares one metric exactly as BENCHMARK.json does. Bound
// (end-to-end metrics only) is the share of the parent's median by which
// the metric may worsen before a change counts as a regression.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the simulator sees, all host-side:
// how long a pass over a workload takes, how much of it is set-up, how
// fast the measured regions simulate, and what the pass costs in memory.
// They are measured with tracing off, one pass per child process.
var endToEnd = []metricDecl{
	{"wall_s", "s", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
	{"sim_maccess_per_s", "Maccess/s", higher, 0.25},
	{"sim_minst_per_s", "Minst/s", higher, 0.25},
	{"alloc_mb", "MiB", lower, 0.05},
	{"mallocs_k", "k", lower, 0.05},
	{"peak_rss_mb", "MiB", lower, 0.25},
}

// perLayer are the single-layer metrics of a -trace 1 run. The README
// names the end-to-end metric and workload each one should move.
var perLayer = []metricDecl{
	{Name: "core.unit_post_ms", Unit: "ms", Better: lower},
	{Name: "machine.acquire_ms", Unit: "ms", Better: lower},
	{Name: "workloads.build_ms", Unit: "ms", Better: lower},
	{Name: "runtime.gc_cpu_frac", Unit: "fraction", Better: lower},
	{Name: "machine.replay_ns_per_access", Unit: "ns", Better: lower},
	{Name: "workloads.ns_per_access", Unit: "ns", Better: lower},
	{Name: "tlb.lookup_ns", Unit: "ns", Better: lower},
	{Name: "walker.walk_ns", Unit: "ns", Better: lower},
	{Name: "cache.access_ns", Unit: "ns", Better: lower},
	{Name: "mem.read_ns", Unit: "ns", Better: lower},
	{Name: "vm.fault_ns", Unit: "ns", Better: lower},
	{Name: "cpu.residual_ns_per_access", Unit: "ns", Better: lower},
	{Name: "tlb.miss_frac", Unit: "fraction", Better: lower},
	{Name: "walker.loads_per_walk", Unit: "count", Better: lower},
	{Name: "cache.l1_hit_frac", Unit: "fraction", Better: higher},
	{Name: "cpu.wrongpath_walk_frac", Unit: "fraction", Better: lower},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: lower},
}

// endToEndValues derives every end-to-end metric of one untraced pass.
// Host times are normalized to the reference host by the pass's probe
// (see probe.go); a pass without a probe is left as measured.
func endToEndValues(p *passSample) map[string]float64 {
	var setupNS, steadyNS, accesses, insts float64
	for i := range p.Units {
		u := &p.Units[i]
		setupNS += float64(u.AcquireNS + u.BuildNS)
		steadyNS += float64(u.SteadyNS)
		accesses += float64(u.Accesses)
		insts += float64(u.Instructions)
	}
	scale := 1.0
	if p.ProbeNS > 0 {
		scale = float64(referenceProbe) / float64(p.ProbeNS)
	}
	steadyNS *= scale
	return map[string]float64{
		"wall_s":            scale * float64(p.WallNS) / 1e9,
		"setup_s":           scale * setupNS / 1e9,
		"sim_maccess_per_s": ratio(accesses*1e3, steadyNS),
		"sim_minst_per_s":   ratio(insts*1e3, steadyNS),
		"alloc_mb":          float64(p.AllocBytes) / (1 << 20),
		"mallocs_k":         float64(p.Mallocs) / 1e3,
		"peak_rss_mb":       float64(p.MaxRSSKiB) / 1024,
	}
}

// layerReport is a traced run's per-layer result for one workload.
type layerReport struct {
	Values map[string]float64
	// WalkerNSByScheme is walker.walk_ns per scheme backend.
	WalkerNSByScheme map[string]float64
	// ResidualShare is cpu.residual_ns_per_access over the native units'
	// machine.replay_ns_per_access.
	ResidualShare float64
}

// perLayerValues derives every per-layer metric from a traced pass.
// Interval and PMU-derived metrics come from the units' untraced runs,
// which recording does not perturb; ladder costs come from their
// attributions. Per-call costs are summed over units before dividing, so
// a unit weighs in by its number of calls.
func perLayerValues(p *passSample) layerReport {
	type acc struct{ ns, calls float64 }
	var post, acquire, build, units float64
	var steady, replay, residual, vmFault, traced acc
	var stlbMiss, walks, wrongPath, walkerLoads, l1Hits, dataAccesses, nativeReplayNS float64
	layers := map[string]*acc{}
	byScheme := map[string]*acc{}
	for i := range p.Units {
		u := &p.Units[i]
		units++
		post += float64(u.PostNS)
		acquire += float64(u.AcquireNS)
		build += float64(u.BuildNS)
		steady.ns += float64(u.SteadyNS)
		steady.calls += float64(u.Accesses)
		stlbMiss += float64(u.STLBMisses)
		walks += float64(u.Walks)
		wrongPath += float64(u.WrongPathWalks)
		walkerLoads += float64(u.WalkerLoads)
		l := u.Layers
		if l == nil {
			continue
		}
		traced.ns += float64(l.TracedSteadyNS)
		traced.calls += float64(u.SteadyNS)
		replayNS := l.Ladder.FullNS - l.Ladder.BaseNS
		replay.ns += replayNS
		replay.calls += float64(l.Accesses)
		vmFault.ns += l.FaultNS
		vmFault.calls += float64(l.Faults)
		for _, c := range l.Ladder.Layers {
			if layers[c.Name] == nil {
				layers[c.Name] = &acc{}
			}
			layers[c.Name].ns += c.NS
			layers[c.Name].calls += float64(c.Calls)
		}
		if !l.Native {
			continue
		}
		nativeReplayNS += replayNS
		residual.ns += l.Ladder.ResidualNS
		residual.calls += float64(l.Accesses)
		if c, ok := l.Ladder.layer("cache"); ok {
			l1Hits += float64(l.L1Hits)
			dataAccesses += float64(c.Calls)
		}
		if c, ok := l.Ladder.layer("walker"); ok {
			if byScheme[l.Variant] == nil {
				byScheme[l.Variant] = &acc{}
			}
			byScheme[l.Variant].ns += c.NS
			byScheme[l.Variant].calls += float64(c.Calls)
		}
	}
	perCall := func(name string) float64 {
		if c := layers[name]; c != nil {
			return ratio(c.ns, c.calls)
		}
		return 0
	}
	replayPerAccess := ratio(replay.ns, replay.calls)
	r := layerReport{
		Values: map[string]float64{
			"core.unit_post_ms":            ratio(post, units) / 1e6,
			"machine.acquire_ms":           ratio(acquire, units) / 1e6,
			"workloads.build_ms":           ratio(build, units) / 1e6,
			"runtime.gc_cpu_frac":          p.GCCPUFrac,
			"machine.replay_ns_per_access": replayPerAccess,
			"workloads.ns_per_access":      ratio(steady.ns, steady.calls) - replayPerAccess,
			"tlb.lookup_ns":                perCall("tlb"),
			"walker.walk_ns":               perCall("walker"),
			"cache.access_ns":              perCall("cache"),
			"mem.read_ns":                  perCall("mem"),
			"vm.fault_ns":                  ratio(vmFault.ns, vmFault.calls),
			"cpu.residual_ns_per_access":   ratio(residual.ns, residual.calls),
			"tlb.miss_frac":                ratio(stlbMiss, steady.calls),
			"walker.loads_per_walk":        ratio(walkerLoads, walks),
			"cache.l1_hit_frac":            ratio(l1Hits, dataAccesses),
			"cpu.wrongpath_walk_frac":      ratio(wrongPath, walks),
			"trace.overhead_frac":          ratio(traced.ns, traced.calls) - 1,
		},
		WalkerNSByScheme: map[string]float64{},
		ResidualShare:    ratio(residual.ns, nativeReplayNS),
	}
	//atlint:ordered copies into another map, whose JSON encoding sorts its keys
	for name, c := range byScheme {
		r.WalkerNSByScheme[name] = ratio(c.ns, c.calls)
	}
	return r
}

// ratio is a/b, or 0 when b is 0, so every reported value is a number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summary is one metric's samples with their median and quartiles.
type summary struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
}

func summarize(unit string, samples []float64) summary {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s := summary{Unit: unit, Samples: samples, N: len(samples)}
	if len(sorted) > 0 {
		s.Median = stats.Summarize(sorted).Median
		s.Q1 = stats.Quantile(sorted, 0.25)
		s.Q3 = stats.Quantile(sorted, 0.75)
	}
	return s
}

// iqr is the distance between the quartiles.
func (s summary) iqr() float64 { return s.Q3 - s.Q1 }

// finite replaces NaN and infinities, which JSON cannot carry, by 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
