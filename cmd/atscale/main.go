// Command atscale regenerates the paper's tables and figures on the
// simulated machine.
//
// Usage:
//
//	atscale [flags] <experiment>...
//	atscale -list
//	atscale -size small fig1 table4
//	atscale -size medium all
//	atscale -p 8 -size medium all            # 8 concurrent simulations
//	atscale -p 1 fig1                        # force the serial schedule
//	atscale -cpuprofile cpu.out fig1         # profile the simulator itself
//	atscale -size small virt                 # nested-paging sweep family
//	atscale -virt -ept-pages 2MB fig1        # re-run a paper artifact inside a VM
//
// Each experiment id names one artifact of the paper's evaluation
// (fig1..fig10, table4..table6, tables). Experiments run within one
// session, so artifacts that share measurements (fig1/fig4/table4/table5
// all consume the same sweeps) measure each workload only once — even
// when several experiments are dispatched concurrently, which they are
// whenever the parallelism (-p, default: all cores) is above one. The
// run schedule never changes results: parallel output is byte-identical
// to serial output, with experiments printed in the order requested.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"atscale/internal/core"
	"atscale/internal/telemetry"
	"atscale/internal/workloads"
	_ "atscale/internal/workloads/all"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "atscale:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	fl := core.DefaultFlags()
	fl.Bind(flag.CommandLine, core.BudgetFlag)
	var (
		size       = flag.String("size", "medium", "ladder preset: tiny|small|medium|large")
		par        = flag.Int("p", 0, "max concurrent simulations (0: one per core; 1: serial)")
		quiet      = flag.Bool("quiet", false, "suppress per-run progress")
		list       = flag.Bool("list", false, "list experiments and workloads, then exit")
		out        = flag.String("out", "", "also write rendered output to this file")
		csvDir     = flag.String("csv", "", "also write each experiment's data as <dir>/<id>.csv")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile at campaign end to this file")
		runIDs     = flag.String("run", "", "experiment id(s) to run, comma-separated (alternative to positional ids)")
		tlVerify   = flag.Bool("timeline-verify", false, "validate the exported timeline's structure after writing it (requires -timeline)")
		telem      = flag.String("telemetry", "", `live campaign telemetry: "stderr" for JSONL heartbeats, or a listen address (e.g. :8344) for an HTTP /stats endpoint`)
		refuteOn   = flag.Bool("refute", false, "check the counter-identity registry on every run unit; print the refutation report and exit nonzero on any violation")
		refuteOut  = flag.String("refute-out", "", "with -refute: also write the refutation report as JSON to this file")
		topdownOn  = flag.Bool("topdown", false, "collect per-unit counter deltas and print the top-down cycle attribution tree (campaign-wide plus per scheme group)")
		topdownAB  = flag.String("topdown-diff", "", `signed attribution delta between two scheme groups, as "A,B" (e.g. radix,victima with the schemes experiment)`)
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, e := range core.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Caption)
		}
		fmt.Println("\nworkloads:")
		for _, w := range workloads.All() {
			fmt.Printf("  %-22s suite=%-10s rungs=%d\n", w.Name(), w.Suite, len(w.Ladder))
		}
		return nil
	}
	ids := flag.Args()
	if *runIDs != "" {
		for _, id := range strings.Split(*runIDs, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		if *refuteOn {
			// Bare -refute checks the headline ladder.
			ids = []string{"wcpi"}
		} else {
			return fmt.Errorf("no experiments given (try -list, or: atscale fig1)")
		}
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range core.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	exps := make([]core.Experiment, len(ids))
	for i, id := range ids {
		exp, err := core.ExperimentByID(id)
		if err != nil {
			return err
		}
		exps[i] = exp
	}

	cfg := core.DefaultRunConfig()
	cfg.Preset, err = workloads.ParsePreset(*size)
	if err != nil {
		return err
	}
	cfg.Parallelism = *par
	if err := fl.Apply(&cfg); err != nil {
		return err
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	if *tlVerify && fl.Timeline == "" {
		return fmt.Errorf("-timeline-verify requires -timeline")
	}
	if *cpuprofile != "" {
		f, createErr := os.Create(*cpuprofile)
		if createErr != nil {
			return createErr
		}
		if startErr := pprof.StartCPUProfile(f); startErr != nil {
			f.Close()
			return startErr
		}
		// A failed Close can lose the profile, so it fails the run.
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *refuteOn {
		// The campaign registry: the base identities plus the attribution
		// tree's conservation laws, so -refute audits the tree too.
		cfg.Refute = core.NewCampaignChecker()
	} else if *refuteOut != "" {
		return fmt.Errorf("-refute-out requires -refute")
	}
	if *topdownOn || *topdownAB != "" {
		cfg.Topdown = core.NewTopdownCollector()
	}
	stopTelemetry := func() {}
	if *telem != "" {
		cfg.Events = telemetry.NewHub()
		if stopTelemetry, err = startTelemetry(*telem, cfg.Events); err != nil {
			return err
		}
	}
	session := core.NewSession(cfg)

	parallelism := *par
	if parallelism == 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	concurrent := parallelism > 1 && len(exps) > 1

	var rendered strings.Builder
	emit := func(exp core.Experiment, result core.Renderer) error {
		block := result.Render()
		fmt.Fprintf(os.Stderr, "== %s: %s\n", exp.ID, exp.Caption)
		fmt.Println(block)
		rendered.WriteString(block + "\n")
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, exp.ID+".csv")
			if err := os.WriteFile(path, []byte(core.CSV(result)), 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	if concurrent {
		// Dispatch everything at once (shared sweeps coalesce, the pool
		// bounds concurrency), then print in request order.
		results, err := runExperiments(session, exps)
		if err != nil {
			return err
		}
		for i, exp := range exps {
			if err := emit(exp, results[i]); err != nil {
				return err
			}
		}
	} else {
		// Serial schedule: stream each artifact as it completes.
		for _, exp := range exps {
			result, err := exp.Run(session)
			if err != nil {
				return fmt.Errorf("%s: %w", exp.ID, err)
			}
			if err := emit(exp, result); err != nil {
				return err
			}
		}
	}
	stopTelemetry()
	if cfg.Topdown != nil {
		block, err := renderTopdown(cfg.Topdown, *topdownOn, *topdownAB)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "== topdown: cycle attribution")
		fmt.Println(block)
		rendered.WriteString(block + "\n")
	}
	if cfg.Refute != nil {
		report := cfg.Refute.Report()
		fmt.Fprintln(os.Stderr, "== refute: counter-identity report")
		fmt.Println(report.Render())
		rendered.WriteString(report.Render() + "\n")
		if *refuteOut != "" {
			if err := os.WriteFile(*refuteOut, report.JSON(), 0o644); err != nil {
				return err
			}
		}
		if report.TotalViolations > 0 {
			return fmt.Errorf("refute: %d identity violation(s) across %d unit(s)", report.TotalViolations, report.Units)
		}
	}
	if err := writeTimeline(&fl, cfg.Trace, *tlVerify); err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(rendered.String()), 0o644); err != nil {
			return err
		}
	}
	if *memprofile != "" {
		runtime.GC()
		return core.WriteFile(*memprofile, pprof.WriteHeapProfile)
	}
	return nil
}

// runExperiments dispatches every experiment concurrently over the
// shared session and returns results in request order. The session's
// singleflight memoization keeps shared sweeps measured exactly once,
// and its worker pool bounds how many simulations run at a time. The
// first error (in request order) wins, matching the serial contract.
func runExperiments(session *core.Session, exps []core.Experiment) ([]core.Renderer, error) {
	results := make([]core.Renderer, len(exps))
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	wg.Add(len(exps))
	for i := range exps {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = exps[i].Run(session)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exps[i].ID, err)
		}
	}
	return results, nil
}
