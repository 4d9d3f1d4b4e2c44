package main

import (
	"fmt"

	"atscale/internal/arch"
)

// unitBudget is the retired-access budget of one unit's measured region.
// It is sized so that one pass over the largest workload stays near five
// seconds on a 2-vCPU host, which leaves room for several passes, and so
// for medians, inside one benchmark run.
const unitBudget = 1_000_000

// unit is one core.Run call: a registered workload spec at one ladder
// rung, heap page size and machine variant.
type unit struct {
	Spec    string
	Param   uint64
	Pages   arch.PageSize
	Variant string
}

func (u unit) String() string {
	return fmt.Sprintf("%s/%d/%s/%s", u.Spec, u.Param, u.Pages, u.Variant)
}

// Machine variants. The first four are native radix tables walked by a
// translation-scheme backend; the rest bypass the scheme seam.
const (
	radix     = "radix"
	victima   = "victima"
	mitosis   = "mitosis"
	dramcache = "dramcache"
	hashed    = "hashed"
	virtEPT4K = "virt-ept4k"
	virtEPT2M = "virt-ept2m"
)

// configure applies a machine variant to the campaign's system config.
func configure(sys *arch.SystemConfig, variant string) error {
	switch variant {
	case radix:
	case victima, dramcache:
		sys.Scheme = variant
	case mitosis:
		sys.Scheme = variant
		sys.NUMA.Nodes = 2
	case hashed:
		sys.PageTable = "hashed"
	case virtEPT4K, virtEPT2M:
		sys.Virt = arch.DefaultVirt()
		if variant == virtEPT2M {
			sys.Virt.EPTPages = arch.Page2M
		}
	default:
		return fmt.Errorf("unknown machine variant %q", variant)
	}
	return nil
}

// benchWorkload is one named set of units the benchmark runs per pass.
type benchWorkload struct {
	name  string
	why   string
	units []unit
}

// translationUnits are the walk-bound programs of walk-4k and hot-2m:
// the same programs and data streams under one heap page size.
func translationUnits(ps arch.PageSize) []unit {
	return []unit{
		{"gups-rand", 26, ps, radix},
		{"gups-rand", 28, ps, radix},
		{"mcf-rand", 262144, ps, radix},
		{"mcf-rand", 2097152, ps, radix},
		{"bfs-urand", 17, ps, radix},
	}
}

// schemeUnits crosses two translation-bound programs with every machine
// variant.
func schemeUnits() []unit {
	var out []unit
	for _, v := range []string{radix, victima, mitosis, dramcache, hashed, virtEPT4K, virtEPT2M} {
		out = append(out,
			unit{"mcf-rand", 262144, arch.Page4K, v},
			unit{"gups-rand", 24, arch.Page4K, v})
	}
	return out
}

// benchWorkloads are the benchmark's workloads, in report order. Each
// one stresses different layers; the why strings are repeated in
// BENCHMARK.json and the README.
var benchWorkloads = []benchWorkload{
	{
		name:  "walk-4k",
		why:   "footprints far beyond STLB reach under 4 KB pages, so the walker, PSCs, PTE cache loads and speculative walks dominate",
		units: translationUnits(arch.Page4K),
	},
	{
		name:  "hot-2m",
		why:   "the walk-4k programs and streams under 2 MB pages: walks nearly vanish, so a walker gain must not show here",
		units: translationUnits(arch.Page2M),
	},
	{
		name: "graph-setup",
		why:  "setup-bound: graph generation, CSR build, quiet prefaulting and page faults, write-heavy with ~1M mallocs",
		units: []unit{
			{"pr-kron", 18, arch.Page4K, radix},
			{"pr-kron", 18, arch.Page2M, radix},
			{"bc-kron", 18, arch.Page4K, radix},
			{"bc-kron", 18, arch.Page2M, radix},
			{"tc-urand", 17, arch.Page4K, radix},
		},
	},
	{
		name:  "schemes-virt",
		why:   "every translation scheme plus hashed and nested paging: the scheme walk kernels, the nested walker and unpooled builds",
		units: schemeUnits(),
	},
}

// workloadByName resolves a benchmark workload.
func workloadByName(name string) (benchWorkload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
