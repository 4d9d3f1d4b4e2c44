// Command atprof is `perf record` + `perf stat -I` for the simulated
// machine: it runs one workload instance with PEBS-style walk sampling
// and interval counter streaming, then renders a hot-page attribution
// report and an instruction-indexed WCPI timeline.
//
// Usage:
//
//	atprof -w bfs-urand -param 16 -period 4096 -interval 100000
//	atprof -w gups-rand -period 2048 -json
//	atprof -w mcf-rand -interval 50000 -csv out/mcf   # out/mcf.timeline.csv, out/mcf.samples.csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"atscale/internal/arch"
	"atscale/internal/core"
	"atscale/internal/perf"
	_ "atscale/internal/workloads/all"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "atprof:", err)
		os.Exit(1)
	}
}

func run() error {
	f := core.DefaultFlags()
	f.Bind(flag.CommandLine, core.UnitFlags|core.PagesFlag|core.BudgetFlag)
	var (
		period   = flag.Uint64("period", 4096, "sampling period (0 disables sampling)")
		events   = flag.String("e", "", "comma-separated events to arm with -period (default: the dtlb walk-duration pair)")
		interval = flag.Uint64("interval", 100_000, "instructions per timeline row (0 disables streaming)")
		topK     = flag.Int("k", 20, "hot pages to report")
		buffer   = flag.Int("buf", 0, "sample ring capacity (0: default)")
		jsonOut  = flag.Bool("json", false, "emit one JSON document instead of text")
		csvOut   = flag.String("csv", "", "write PREFIX.timeline.csv and PREFIX.samples.csv alongside the text output")
	)
	flag.Parse()

	spec, param, err := f.Spec()
	if err != nil {
		return err
	}
	cfg := core.DefaultRunConfig()
	if err := f.Apply(&cfg); err != nil {
		return err
	}
	cfg.Interval = *interval
	cfg.SamplePeriod = *period
	cfg.SampleBuffer = *buffer
	if *events != "" {
		for _, n := range strings.Split(*events, ",") {
			e, err := perf.ByName(strings.TrimSpace(n))
			if err != nil {
				return err
			}
			cfg.SampleEvents = append(cfg.SampleEvents, e)
		}
	}
	r, err := f.Run(&cfg, spec, param)
	if err != nil {
		return err
	}
	report := perf.NewReport(r.Samples, r.SampleDropped, r.SampleDroppedWeight, *topK)

	if *csvOut != "" {
		if err := writeCSVs(*csvOut, r); err != nil {
			return err
		}
	}
	if *jsonOut {
		return writeJSON(os.Stdout, r, report)
	}
	renderText(os.Stdout, &cfg, r, report)
	return nil
}

// renderText prints the run header, the instruction-indexed timeline,
// and the attribution report.
func renderText(w *os.File, cfg *core.RunConfig, r core.RunResult, report perf.Report) {
	fmt.Fprintf(w, "workload %s  param %d  pages %s  footprint %s\n",
		r.Workload, r.Param, r.PageSize, arch.FormatBytes(r.Footprint))
	fmt.Fprintf(w, "aggregate: cpi %.3f  wcpi %.4f  walk cycles %d  walks %d\n",
		r.Metrics.CPI, r.Metrics.WCPI, r.Metrics.WalkCycles, r.Metrics.Walks)

	if len(r.Timeline) > 0 {
		fmt.Fprintf(w, "\ntimeline (every %d instructions):\n", cfg.Interval)
		fmt.Fprintf(w, "  %12s %8s %8s %9s %9s %9s %8s\n",
			"inst", "cpi", "wcpi", "walks/ki", "stlb-hit", "pte-mem%", "abort%")
		for _, row := range r.Timeline {
			m := perf.Compute(row.Delta)
			_, _, ab := m.Outcomes.Fractions()
			fmt.Fprintf(w, "  %12d %8.3f %8.4f %9.2f %9.3f %8.1f%% %7.1f%%\n",
				row.InstEnd, m.CPI, m.WCPI, m.TLBMissesPerKiloInstruction,
				m.STLBHitRate, 100*m.PTELocation[3], 100*ab)
		}
	}

	if cfg.SamplePeriod > 0 {
		fmt.Fprintf(w, "\nsampling report (period %d):\n%s", cfg.SamplePeriod, report.Format())
		agg := r.Metrics.WalkCycles
		if agg > 0 {
			fmt.Fprintf(w, "sampled/aggregate walk cycles: %.1f%%\n",
				100*float64(report.EstWalkCycles)/float64(agg))
		}
	}
}

// jsonDoc is the -json document.
type jsonDoc struct {
	Workload  string             `json:"workload"`
	Param     uint64             `json:"param"`
	Pages     string             `json:"pages"`
	Footprint uint64             `json:"footprint"`
	Counters  map[string]uint64  `json:"counters"`
	Metrics   perf.Metrics       `json:"metrics"`
	Events    []string           `json:"events"`
	Timeline  []perf.IntervalRow `json:"timeline,omitempty"`
	Report    *perf.Report       `json:"report,omitempty"`
}

func writeJSON(w *os.File, r core.RunResult, report perf.Report) error {
	doc := jsonDoc{
		Workload:  r.Workload,
		Param:     r.Param,
		Pages:     r.PageSize.String(),
		Footprint: r.Footprint,
		Counters:  make(map[string]uint64, perf.NumEvents),
		Metrics:   r.Metrics,
		Timeline:  r.Timeline,
	}
	for _, e := range perf.Events() {
		doc.Counters[e.String()] = r.Counters.Get(e)
		doc.Events = append(doc.Events, e.String())
	}
	if r.Samples != nil {
		doc.Report = &report
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func writeCSVs(prefix string, r core.RunResult) error {
	if err := core.WriteFile(prefix+".timeline.csv", func(w io.Writer) error {
		return perf.WriteIntervalsCSV(w, r.Timeline)
	}); err != nil {
		return err
	}
	return core.WriteFile(prefix+".samples.csv", func(w io.Writer) error {
		return perf.WriteSamplesCSV(w, r.Samples)
	})
}
