// Command atperf is `perf stat` for the simulated machine: it runs one
// workload instance under one page-size policy and prints the raw
// counters plus the paper's derived metrics.
//
// Usage:
//
//	atperf -w bfs-urand -param 16 -pages 4KB -budget 2000000
//	atperf -w gups-rand -param 24 -pages all     # §III overhead methodology
//	atperf -w uniform-synth -param 26 -virt -ept-pages 2MB   # nested-paging run
//
// With -pages all, the three policy runs (4KB, 2MB, 1GB) are one small
// campaign: they execute concurrently on the scheduler's worker pool
// (bounded by -p) and reduce to the paper's relative AT overhead.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"atscale/internal/arch"
	"atscale/internal/core"
	"atscale/internal/perf"
	"atscale/internal/workloads"
	_ "atscale/internal/workloads/all"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "atperf:", err)
		os.Exit(1)
	}
}

func run() error {
	f := core.DefaultFlags()
	f.Bind(flag.CommandLine, core.UnitFlags|core.PagesFlag|core.BudgetFlag)
	flag.Lookup("pages").Usage += "|all"
	var (
		par    = flag.Int("p", 0, "max concurrent simulations with -pages all (0: one per core)")
		all    = flag.Bool("counters", true, "print the full counter listing")
		events = flag.String("e", "", "comma-separated event names to print (perf spellings); overrides -counters")
	)
	flag.Parse()

	spec, param, err := f.Spec()
	if err != nil {
		return err
	}
	cfg := core.DefaultRunConfig()
	cfg.Parallelism = *par
	if err := f.Apply(&cfg); err != nil {
		return err
	}
	if f.Pages == "all" {
		return measureAllPages(&f, &cfg, spec, param)
	}
	r, err := f.Run(&cfg, spec, param)
	if err != nil {
		return err
	}
	if f.Virt {
		fmt.Printf("workload %s  param %d  guest pages %s  EPT pages %s  footprint %s\n\n",
			r.Workload, r.Param, r.PageSize, cfg.System.Virt.EPTPages, arch.FormatBytes(r.Footprint))
	} else {
		fmt.Printf("workload %s  param %d  pages %s  footprint %s\n\n",
			r.Workload, r.Param, r.PageSize, arch.FormatBytes(r.Footprint))
	}
	switch {
	case *events != "":
		for _, name := range strings.Split(*events, ",") {
			e, err := perf.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			fmt.Printf("%20d  %s\n", r.Counters.Get(e), e)
		}
	case *all:
		fmt.Print(r.Counters.Format())
	}
	fmt.Print("\n" + r.Metrics.FormatDerived())
	if f.Virt {
		fmt.Print("\n" + r.Metrics.FormatVirt(r.Counters.Get(perf.EPTWalkCompleted)))
	}
	return nil
}

// measureAllPages applies the §III methodology: one run per page-size
// policy (scheduled concurrently), reduced to the relative AT overhead.
func measureAllPages(f *core.Flags, cfg *core.RunConfig, spec *workloads.Spec, param uint64) error {
	p, err := core.MeasureOverhead(cfg, spec, param)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s  param %d  pages all  footprint %s\n\n",
		p.Workload, p.Param, arch.FormatBytes(p.Footprint))
	fmt.Printf("%8s %10s %10s %12s %14s\n", "pages", "CPI", "WCPI", "walk lat", "misses/kacc")
	for _, row := range []struct {
		ps string
		m  perf.Metrics
	}{{"4KB", p.M4K}, {"2MB", p.M2M}, {"1GB", p.M1G}} {
		fmt.Printf("%8s %10.3f %10.4f %12.1f %14.2f\n",
			row.ps, row.m.CPI, row.m.WCPI, row.m.AvgWalkCycles, row.m.TLBMissesPerKiloAccess)
	}
	fmt.Printf("\nrelative AT overhead (4KB vs min(2MB, 1GB)): %.1f%%\n", 100*p.RelOverhead)
	return f.WriteTimeline(cfg.Trace)
}
