package core

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"atscale/internal/arch"
	"atscale/internal/scheme"
	"atscale/internal/telemetry"
	"atscale/internal/workloads"
)

// Flags holds the command-line flags the front ends share. Bind declares
// them on a flag set and Apply maps them onto a RunConfig, so each flag
// and its mapping is written once.
type Flags struct {
	Workload, Pages, Timeline, GuestPages, EPTPages, Scheme string
	Param, Budget                                           uint64
	Seed                                                    int64
	Virt                                                    bool
	NUMANodes                                               int
}

// The flag groups a front end may bind beside the flags every front end
// takes (-seed, -timeline, -virt, -guest-pages, -ept-pages, -scheme and
// -numa-nodes): UnitFlags is -w and -param, PagesFlag is -pages and
// BudgetFlag is -budget.
const (
	UnitFlags = 1 << iota
	PagesFlag
	BudgetFlag
)

// DefaultFlags returns the flags' defaults; a front end may change them
// before Bind.
func DefaultFlags() Flags {
	d := DefaultRunConfig()
	return Flags{Workload: "bfs-urand", Pages: "4KB", Budget: d.Budget, Seed: d.Seed, EPTPages: "4KB"}
}

// Bind declares the flags of groups (an or of the Flag groups) on fs.
func (f *Flags) Bind(fs *flag.FlagSet, groups int) {
	if groups&UnitFlags != 0 {
		fs.StringVar(&f.Workload, "w", f.Workload, "workload (program-generator)")
		fs.Uint64Var(&f.Param, "param", f.Param, "input size parameter (default: smallest rung)")
	}
	if groups&PagesFlag != 0 {
		fs.StringVar(&f.Pages, "pages", f.Pages, "backing page size: 4KB|2MB|1GB")
	}
	if groups&BudgetFlag != 0 {
		fs.Uint64Var(&f.Budget, "budget", f.Budget, "retired accesses per measured region")
	}
	fs.Int64Var(&f.Seed, "seed", f.Seed, "simulation seed")
	fs.StringVar(&f.Timeline, "timeline", f.Timeline, "write the deterministic timeline (Chrome trace-event JSON, Perfetto-loadable) to this file")
	fs.BoolVar(&f.Virt, "virt", f.Virt, "run under nested paging (guest tables over a host EPT)")
	fs.StringVar(&f.GuestPages, "guest-pages", f.GuestPages, "with -virt: pin the guest page size (4KB|2MB|1GB), overriding every page-size policy")
	fs.StringVar(&f.EPTPages, "ept-pages", f.EPTPages, "with -virt: EPT leaf size (4KB|2MB|1GB)")
	fs.StringVar(&f.Scheme, "scheme", f.Scheme, "translation scheme: "+strings.Join(scheme.Names(), "|")+" (default radix)")
	fs.IntVar(&f.NUMANodes, "numa-nodes", f.NUMANodes, "NUMA nodes (0/1: UMA; >1 enables the NUMA memory model and the deterministic migration schedule; mitosis defaults to 2)")
}

// Apply maps the flags onto cfg: budget, seed, nested paging, scheme,
// NUMA nodes and, with -timeline, a fresh cfg.Trace. -guest-pages needs
// -virt; it sets cfg.GuestPages, which overrides every unit's page-size
// policy, and replaces -pages.
func (f *Flags) Apply(cfg *RunConfig) error {
	cfg.Budget, cfg.Seed = f.Budget, f.Seed
	if f.Virt {
		ept, err := arch.ParsePageSize(f.EPTPages)
		if err != nil {
			return fmt.Errorf("-ept-pages: %w", err)
		}
		cfg.System = virtualize(cfg.System, ept)
	} else if f.GuestPages != "" {
		return fmt.Errorf("-guest-pages requires -virt")
	}
	if f.GuestPages != "" {
		gp, err := arch.ParsePageSize(f.GuestPages)
		if err != nil {
			return fmt.Errorf("-guest-pages: %w", err)
		}
		cfg.GuestPages, f.Pages = &gp, f.GuestPages
	}
	if f.Scheme != "" {
		if _, err := scheme.ByName(f.Scheme); err != nil {
			return err
		}
		cfg.System.Scheme = f.Scheme
	}
	cfg.System.NUMA.Nodes = f.NUMANodes
	if f.NUMANodes == 0 && f.Scheme == "mitosis" {
		cfg.System.NUMA.Nodes = 2 // mitosis is meaningless on UMA
	}
	if f.Timeline != "" {
		cfg.Trace = telemetry.New()
	}
	return nil
}

// Spec resolves -w and -param: the workload and its size parameter, the
// smallest rung when -param is 0.
func (f *Flags) Spec() (*workloads.Spec, uint64, error) {
	spec, err := workloads.ByName(f.Workload)
	if err == nil && f.Param == 0 {
		f.Param = spec.Ladder[0]
	}
	return spec, f.Param, err
}

// Run runs one unit of spec at param through Run on cfg under the -pages
// policy, then writes the -timeline file.
func (f *Flags) Run(cfg *RunConfig, spec *workloads.Spec, param uint64) (RunResult, error) {
	ps, err := arch.ParsePageSize(f.Pages)
	if err != nil {
		return RunResult{}, err
	}
	r, err := Run(cfg, spec, param, ps)
	if err != nil {
		return r, err
	}
	return r, f.WriteTimeline(cfg.Trace)
}

// WriteTimeline exports tr to the -timeline file; without -timeline it
// does nothing.
func (f *Flags) WriteTimeline(tr *telemetry.Tracer) error {
	if f.Timeline == "" {
		return nil
	}
	return WriteFile(f.Timeline, tr.Export)
}

// WriteFile creates path and fills it with write. A failed Close can
// lose written data, so its error is returned too.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
