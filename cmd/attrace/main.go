// Command attrace records and replays workload event traces.
//
// Recording captures a workload's complete machine-visible behaviour
// (allocations, setup prefaults, loads/stores, branches) into a compact
// binary trace; replaying drives a fresh — possibly differently
// configured — machine with it. This is the proxy-workload flow of the
// paper's §II-B: a trace from one system feeds what-if studies on
// another.
//
// Usage:
//
//	attrace record -w gups-rand -param 25 -budget 500000 -o gups.att
//	attrace replay -i gups.att
//	attrace replay -i gups.att -stlb 4096      # what-if: 4x STLB
package main

import (
	"flag"
	"fmt"
	"os"

	"atscale/internal/arch"
	"atscale/internal/machine"
	"atscale/internal/perf"
	"atscale/internal/telemetry"
	"atscale/internal/trace"
	"atscale/internal/workloads"
	_ "atscale/internal/workloads/all"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: attrace record|replay [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "attrace:", err)
		os.Exit(1)
	}
}

func record(args []string) (err error) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("w", "gups-rand", "workload to record")
	param := fs.Uint64("param", 0, "input size parameter (default: smallest rung)")
	budget := fs.Uint64("budget", 500_000, "retired accesses to record")
	seed := fs.Int64("seed", 2024, "simulation seed")
	out := fs.String("o", "trace.att", "output trace file")
	fs.Parse(args)

	spec, err := workloads.ByName(*name)
	if err != nil {
		return err
	}
	if *param == 0 {
		*param = spec.Ladder[0]
	}
	m, err := machine.New(arch.DefaultSystem(), arch.Page4K, *seed)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	// A failed Close can lose recorded events, so it fails the run.
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := trace.NewWriter(f)
	m.SetTracer(w)
	inst, err := spec.Build(m, *param)
	if err != nil {
		return err
	}
	inst.Run(*budget)
	m.SetTracer(nil)
	if err := w.Flush(); err != nil {
		return err
	}
	st, _ := f.Stat()
	fmt.Fprintf(os.Stderr, "recorded %d events (%d bytes) from %s param %d\n",
		w.Events(), st.Size(), spec.Name(), *param)
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "trace.att", "input trace file")
	pages := fs.String("pages", "4KB", "backing page size")
	seed := fs.Int64("seed", 2024, "simulation seed")
	stlb := fs.Int("stlb", 0, "override STLB entries (what-if)")
	pde := fs.Int("pde", 0, "override PDE-cache entries (what-if)")
	maxEvents := fs.Uint64("n", 0, "replay at most n events (0 = all)")
	timeline := fs.String("timeline", "", "write the replay's deterministic timeline (Chrome trace-event JSON, Perfetto-loadable) to this file")
	fs.Parse(args)

	ps, err := arch.ParsePageSize(*pages)
	if err != nil {
		return err
	}
	cfg := arch.DefaultSystem()
	if *stlb > 0 {
		cfg.STLB.Entries = *stlb
	}
	if *pde > 0 {
		cfg.PSC.PDEntries = *pde
	}
	m, err := machine.New(cfg, ps, *seed)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	var tracer *telemetry.Tracer
	unit := fmt.Sprintf("replay %s %s seed=%d", *in, ps, *seed)
	if *timeline != "" {
		tracer = telemetry.New()
		m.EnableTrace(tracer, unit)
		m.BeginPhase("replay")
	}
	n, err := trace.Replay(m, f, *maxEvents)
	if err != nil {
		return err
	}
	met := perf.Compute(m.Counters())
	if tracer != nil {
		m.EndPhase()
		tracer.FinishUnit(telemetry.Unit{
			Name:   unit,
			Cycles: m.CycleCount(),
			Stats: []telemetry.UnitStat{
				{Name: "wcpi", Val: met.WCPI},
				{Name: "cpi", Val: met.CPI},
			},
		})
		tf, err := os.Create(*timeline)
		if err != nil {
			return err
		}
		if err := tracer.Export(tf); err != nil {
			tf.Close()
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "replayed %d events\n", n)
	fmt.Println(met.Summary())
	return nil
}
