// Command attrace records and replays workload event traces.
//
// Recording captures a workload's complete machine-visible behaviour
// (allocations, setup prefaults, loads/stores, branches, the start of
// the measured region) into a compact binary trace; replaying drives a
// fresh, possibly differently configured, machine with it. This is the
// proxy-workload flow of the paper's §II-B. Both run one core.Run unit
// with the counter identities checked, and fail if one is violated.
//
// Usage:
//
//	attrace record -w gups-rand -param 25 -budget 500000 -o gups.att
//	attrace replay -i gups.att
//	attrace replay -i gups.att -stlb 4096      # what-if: 4x STLB
//	attrace replay -i gups.att -virt -timeline gups.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"atscale/internal/core"
	"atscale/internal/refute"
	"atscale/internal/scheme"
	"atscale/internal/trace"
	"atscale/internal/workloads"
	_ "atscale/internal/workloads/all"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "record" && os.Args[1] != "replay" {
		fmt.Fprintln(os.Stderr, "usage: attrace record|replay [flags]")
		os.Exit(2)
	}
	if err := run(os.Args[1] == "record", os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "attrace:", err)
		os.Exit(1)
	}
}

func run(record bool, args []string) (err error) {
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	f := core.DefaultFlags()
	path, open := "trace.att", os.Open
	var stlb, pde int
	if record {
		f.Workload, f.Budget, open = "gups-rand", 500_000, os.Create
		f.Bind(fs, core.UnitFlags|core.PagesFlag|core.BudgetFlag)
		fs.StringVar(&path, "o", path, "output trace file")
	} else {
		f.Bind(fs, core.PagesFlag)
		fs.StringVar(&path, "i", path, "input trace file")
		fs.IntVar(&stlb, "stlb", 0, "override STLB entries (what-if)")
		fs.IntVar(&pde, "pde", 0, "override PDE-cache entries (what-if)")
	}
	fs.Parse(args)
	cfg := core.DefaultRunConfig()
	if err := f.Apply(&cfg); err != nil {
		return err
	}
	if stlb > 0 {
		cfg.System.STLB.Entries = stlb
	}
	if pde > 0 {
		cfg.System.PSC.PDEntries = pde
	}
	sch, err := scheme.ByName(cfg.System.Scheme)
	if err != nil {
		return err
	}
	cfg.Refute = refute.NewChecker(append(core.CampaignIdentities(), sch.Identities()...)...)
	var spec *workloads.Spec
	var param uint64
	if record {
		if spec, param, err = f.Spec(); err != nil {
			return err
		}
	}
	file, err := open(path)
	if err != nil {
		return err
	}
	// A failed Close can lose recorded events, so it fails the run.
	defer func() {
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}()
	var done func() error
	if record {
		w := trace.NewWriter(file)
		spec, done = trace.Record(spec, w), w.Flush
	} else {
		p, err := trace.NewPlayer(file)
		if err != nil {
			return err
		}
		spec, done = p.Spec(filepath.Base(path)), func() error { return p.Err }
	}
	r, err := f.Run(&cfg, spec, param)
	if err == nil {
		err = done()
	}
	if err != nil {
		return err
	}
	fmt.Println(r.Metrics.Summary())
	if rep := cfg.Refute.Report(); rep.TotalViolations > 0 {
		fmt.Println(rep.Render())
		return fmt.Errorf("refute: %d identity violation(s)", rep.TotalViolations)
	}
	return nil
}
