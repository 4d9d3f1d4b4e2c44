// Command atbench is the repository's end-to-end benchmark. It runs
// named workloads through the real campaign path (core.NewSession then
// core.Run, Parallelism 1, the refute checker on, machine pooling on),
// one pass per fresh child process and one child at a time, and prints
// every end-to-end metric as median, quartiles and sample count with its
// unit. Every unit is checked: no error, every identity held, and a
// counter digest equal across passes and to the one recorded for the
// seed. A -trace 1 run instead records each unit's event stream, replays
// it, and attributes the replay's host time to the simulator's layers.
//
// Usage:
//
//	bash cmd/atbench/run.sh                        # all workloads, from the repo root
//	go run . -workload walk-4k -seed 7            # from cmd/atbench
//	go run . -workload hot-2m -trace 1 -spans spans.json
//	go run . -reps 5 -out runs.json
//	go run . compare parent.json change.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// when any unit failed.
package main

//atlint:frontend the benchmark times the simulator with the host wall clock and spawns its passes as child processes; wall time never reaches simulation state

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"atscale/internal/stats"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout))
	}
	os.Exit(benchMain(args, os.Stdout))
}

// childTimeout bounds one pass process, so a hung pass cannot hang the
// benchmark.
const childTimeout = 150 * time.Second

// options are a benchmark invocation's settings.
type options struct {
	seed    int64
	seconds float64
	reps    int
	trace   int
	probe   *hostProbe
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("atbench", flag.ContinueOnError)
	var (
		workload     = fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
		seed         = fs.Int64("seed", 2024, "machine seed of every unit")
		seconds      = fs.Float64("seconds", 30, "measuring time per workload; a pass starts only if it should end in time")
		reps         = fs.Int("reps", 0, "run exactly this many passes per workload instead of measuring for -seconds")
		traceLevel   = fs.Int("trace", 0, "0: end-to-end metrics; 1: one traced pass, reporting per-layer metrics")
		out          = fs.String("out", "", "append this run's record to a JSON file, the input of atbench compare")
		spansOut     = fs.String("spans", "", "with -trace 1, write the traced pass's spans to this JSON file")
		writeDigests = fs.String("write-digests", "", "record this run's counter digests for -seed into this JSON file")
		child        = fs.Bool("child", false, "run one pass in this process and print it as JSON (used by the parent)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceLevel != 0 && *traceLevel != 1 {
		fmt.Fprintln(os.Stderr, "atbench: -trace must be 0 or 1")
		return 2
	}
	if *child {
		return childMain(*workload, *seed, *traceLevel, *seconds, stdout)
	}
	var selected []benchWorkload
	if *workload == "all" {
		selected = benchWorkloads
	} else {
		w, err := workloadByName(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atbench:", err)
			return 2
		}
		selected = []benchWorkload{w}
	}
	stored, err := storedDigests(*seed, unitBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atbench:", err)
		return 2
	}

	opt := options{seed: *seed, seconds: *seconds, reps: *reps, trace: *traceLevel, probe: newHostProbe()}
	observed := map[string]string{}
	var spans []tracedSpans
	var records []runRecord
	for _, w := range selected {
		rec, passes := runWorkload(w, opt, stored, stdout)
		records = append(records, rec)
		for _, p := range passes {
			for _, u := range p.Units {
				if u.Err == "" {
					observed[u.Unit] = u.Digest
				}
			}
			if p.Traced {
				spans = append(spans, tracedSpans{Workload: w.name, Units: unitNames(w), Spans: p.Spans})
			}
		}
	}
	line := resultFor(records)

	if *out != "" {
		if err := appendRecords(*out, records); err != nil {
			fmt.Fprintln(os.Stderr, "atbench:", err)
			return 1
		}
	}
	if *spansOut != "" {
		if err := writeJSON(*spansOut, map[string]any{"workloads": spans}); err != nil {
			fmt.Fprintln(os.Stderr, "atbench:", err)
			return 1
		}
	}
	if *writeDigests != "" {
		if err := recordDigests(*writeDigests, *seed, unitBudget, observed); err != nil {
			fmt.Fprintln(os.Stderr, "atbench:", err)
			return 1
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// declsFor returns the metrics a run of the given trace level reports.
func declsFor(trace int) []metricDecl {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// childMain runs one pass in this process and prints it as JSON. With
// trace 1 the pass is traced and seconds bounds its attribution.
func childMain(workload string, seed int64, trace int, seconds float64, stdout io.Writer) int {
	w, err := workloadByName(workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atbench:", err)
		return 2
	}
	var tr *tracing
	if trace == 1 {
		tr = &tracing{until: time.Now().Add(time.Duration(seconds * float64(time.Second))), spans: newSpanLog()}
	}
	p := runPass(w, seed, unitBudget, tr)
	if p.MaxRSSKiB, err = peakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "atbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(p); err != nil {
		fmt.Fprintln(os.Stderr, "atbench:", err)
		return 1
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one workload's result in a run; -out files hold a list of
// them and atbench compare reads them back.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Budget    uint64             `json:"budget"`
	Trace     int                `json:"trace"`
	Passes    int                `json:"passes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	// Probe is the host probe time around each pass, which scales an
	// untraced pass's host times (see probe.go).
	Probe summary `json:"host_probe_ms"`
	// WalkerNSByScheme and ResidualShare detail a traced run: the walker
	// rung's ns per walk for each scheme backend, and the residual's share
	// of the native units' replay cost.
	WalkerNSByScheme map[string]float64 `json:"walker_ns_by_scheme,omitempty"`
	ResidualShare    float64            `json:"residual_share,omitempty"`
}

// runWorkload measures one workload: untraced passes for the end-to-end
// metrics, or one traced pass for the per-layer ones.
// It prints the workload's report and returns its record and passes.
func runWorkload(w benchWorkload, opt options, stored map[string]string, stdout io.Writer) (runRecord, []passSample) {
	rec := runRecord{Workload: w.name, Seed: opt.seed, Budget: unitBudget, Trace: opt.trace}
	var passes []passSample
	if opt.trace == 0 {
		passes = untracedPasses(w, opt, &rec)
	} else {
		passes = tracedPasses(w, opt, &rec)
	}
	rec.fill(passes, stored)
	printReport(stdout, w, &rec, passes)
	return rec, passes
}

// fill derives the record's metrics from its passes, which are untraced
// for a trace 0 record and one traced pass for a trace 1 record, and
// counts their failed unit runs.
func (rec *runRecord) fill(passes []passSample, stored map[string]string) {
	rec.Passes = len(passes)
	rec.Metrics = map[string]summary{}
	var probes []float64
	for _, p := range passes {
		probes = append(probes, float64(p.ProbeNS)/1e6)
	}
	rec.Probe = summarize("ms", probes)
	switch {
	case rec.Trace == 0:
		samples := map[string][]float64{}
		for i := range passes {
			//atlint:ordered each key appends to its own slice, so visiting order cannot show
			for name, v := range endToEndValues(&passes[i]) {
				samples[name] = append(samples[name], v)
			}
		}
		for _, d := range endToEnd {
			rec.Metrics[d.Name] = summarize(d.Unit, samples[d.Name])
		}
	case len(passes) == 1:
		layers := perLayerValues(&passes[0])
		for _, d := range perLayer {
			rec.Metrics[d.Name] = summarize(d.Unit, []float64{finite(layers.Values[d.Name])})
		}
		rec.WalkerNSByScheme = layers.WalkerNSByScheme
		rec.ResidualShare = finite(layers.ResidualShare)
	}
	attempted, failed, problems := checkPasses(passes, stored)
	rec.Attempted += attempted
	rec.Failed += failed
	rec.Problems = append(rec.Problems, problems...)
}

// resultFor builds the last output line from the run's records. With
// more than one workload, metric names carry a "workload/" prefix.
func resultFor(records []runRecord) resultLine {
	line := resultLine{Metrics: map[string]resultMetric{}}
	for _, rec := range records {
		line.Attempted += rec.Attempted
		line.Failed += rec.Failed
		for _, d := range declsFor(rec.Trace) {
			name := d.Name
			if len(records) > 1 {
				name = rec.Workload + "/" + name
			}
			line.Metrics[name] = resultMetric{Value: finite(rec.Metrics[d.Name].Median), Unit: d.Unit}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	return line
}

// tracedPasses runs one traced pass, whose attribution may use
// opt.seconds. A pass whose process fails counts all its units as
// failed, and the record gets no metrics.
func tracedPasses(w benchWorkload, opt options, rec *runRecord) []passSample {
	var probe time.Duration
	p, err := probedSpawn(w, opt, 1, opt.seconds, &probe)
	if err != nil {
		rec.Attempted += len(w.units)
		rec.Failed += len(w.units)
		rec.Problems = append(rec.Problems, err.Error())
		return nil
	}
	return []passSample{p}
}

// untracedPasses runs passes until opt.reps are done or, without -reps,
// until another pass would end after opt.seconds. A pass whose process
// fails counts all its units as failed.
func untracedPasses(w benchWorkload, opt options, rec *runRecord) []passSample {
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	var passes []passSample
	var took []float64
	var probe time.Duration
	for n := 0; ; n++ {
		if opt.reps > 0 {
			if n == opt.reps {
				break
			}
		} else if n > 0 {
			next := time.Duration(stats.Summarize(took).Median)
			if time.Now().Add(next).After(deadline) {
				break
			}
		}
		start := time.Now()
		p, err := probedSpawn(w, opt, 0, 0, &probe)
		took = append(took, float64(time.Since(start)))
		if err != nil {
			rec.Attempted += len(w.units)
			rec.Failed += len(w.units)
			rec.Problems = append(rec.Problems, err.Error())
			continue
		}
		passes = append(passes, p)
	}
	return passes
}

// spawn runs one pass in a child process of this executable and waits
// for it to exit.
func spawn(w benchWorkload, seed int64, trace int, seconds float64) (passSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return passSample{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-trace", strconv.Itoa(trace),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return passSample{}, fmt.Errorf("pass of %s: %w", w.name, err)
	}
	var p passSample
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		return passSample{}, fmt.Errorf("pass of %s: decoding its record: %w", w.name, err)
	}
	return p, nil
}

// peakRSS reads this process's peak resident set, in KiB, from
// /proc/self/status. Unlike the rusage a parent gets, VmHWM starts
// afresh at exec, so it does not count the parent's memory.
func peakRSS() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM in /proc/self/status")
}

// probedSpawn runs one pass between two host probes, reusing the probe
// taken after the previous pass as this one's first, and records their
// mean in the pass.
func probedSpawn(w benchWorkload, opt options, trace int, seconds float64, before *time.Duration) (passSample, error) {
	if *before == 0 {
		*before = opt.probe.run()
	}
	p, err := spawn(w, opt.seed, trace, seconds)
	after := opt.probe.run()
	p.ProbeNS = int64(*before+after) / 2
	*before = after
	return p, err
}

// checkPasses counts the unit runs of the passes and the failed ones: a
// unit fails when core.Run or its attribution erred, an identity broke,
// no identity was checked at all, or its counter digest differs from the
// recorded digest or from the unit's digest in an earlier pass.
func checkPasses(passes []passSample, stored map[string]string) (attempted, failed int, problems []string) {
	first := map[string]string{}
	for _, p := range passes {
		for _, u := range p.Units {
			attempted++
			var why string
			switch {
			case u.Err != "":
				why = u.Err
			case u.Checked == 0:
				why = "no identity checked"
			case stored[u.Unit] != "" && stored[u.Unit] != u.Digest:
				why = fmt.Sprintf("counter digest %.12s, recorded %.12s", u.Digest, stored[u.Unit])
			case first[u.Unit] != "" && first[u.Unit] != u.Digest:
				why = fmt.Sprintf("counter digest %.12s, %.12s in an earlier pass", u.Digest, first[u.Unit])
			}
			if first[u.Unit] == "" {
				first[u.Unit] = u.Digest
			}
			if why != "" {
				failed++
				problems = append(problems, u.Unit+": "+why)
			}
		}
	}
	return attempted, failed, problems
}

// printReport writes one workload's human-readable report.
func printReport(stdout io.Writer, w benchWorkload, rec *runRecord, passes []passSample) {
	kind := "untraced"
	if rec.Trace == 1 {
		kind = "traced"
	}
	fmt.Fprintf(stdout, "workload %s (%s): %d units, %d pass(es), seed %d, budget %d accesses per unit\n",
		w.name, kind, len(w.units), rec.Passes, rec.Seed, rec.Budget)
	fmt.Fprintf(stdout, "  %-30s %14s %14s %14s %3s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	for _, d := range declsFor(rec.Trace) {
		s := rec.Metrics[d.Name]
		fmt.Fprintf(stdout, "  %-30s %14.6g %14.6g %14.6g %3d  %s\n", d.Name, s.Median, s.Q1, s.Q3, s.N, d.Unit)
	}
	if rec.Trace == 1 && len(passes) == 1 {
		v := rec.Metrics
		fmt.Fprintf(stdout, "  |cpu.residual_ns_per_access| = %.3g ns, %.1f%% of the native units' replay cost\n",
			math.Abs(v["cpu.residual_ns_per_access"].Median), 100*math.Abs(rec.ResidualShare))
		schemes := make([]string, 0, len(rec.WalkerNSByScheme))
		for s := range rec.WalkerNSByScheme {
			schemes = append(schemes, s)
		}
		sort.Strings(schemes)
		for _, s := range schemes {
			fmt.Fprintf(stdout, "  walker.walk_ns.%-15s %14.6g  ns\n", s, rec.WalkerNSByScheme[s])
		}
		fmt.Fprintf(stdout, "  self time by span (traced pass):\n")
		for _, st := range selfTimes(passes[0].Spans) {
			fmt.Fprintf(stdout, "    %-16s %6d spans %12.3f ms\n", st.Name, st.Count, float64(st.NS)/1e6)
		}
	}
	fmt.Fprintf(stdout, "  host probe %.1f ms median (reference %v): host times scaled by %.3f\n",
		rec.Probe.Median, referenceProbe, ratio(float64(referenceProbe)/1e6, rec.Probe.Median))
	fmt.Fprintf(stdout, "  failed units: %d/%d\n", rec.Failed, rec.Attempted)
	for _, p := range rec.Problems {
		fmt.Fprintf(stdout, "  FAILED %s\n", p)
	}
}

func workloadNames() []string {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return names
}

func unitNames(w benchWorkload) []string {
	names := make([]string, len(w.units))
	for i, u := range w.units {
		names[i] = u.String()
	}
	return names
}

// tracedSpans is one workload's traced-pass spans in a -spans file; a
// span's unit field indexes Units.
type tracedSpans struct {
	Workload string   `json:"workload"`
	Units    []string `json:"units"`
	Spans    []span   `json:"spans"`
}

// runFile is the document -out appends to.
type runFile struct {
	Runs []runRecord `json:"runs"`
}

func readRuns(path string) (runFile, error) {
	var f runFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func appendRecords(path string, recs []runRecord) error {
	f, err := readRuns(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, recs...)
	return writeJSON(path, f)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// digestsJSON holds the counter digest of every unit at unitBudget for
// the recorded seeds: the default 2024 and the held-out 7.
//
//go:embed digests.json
var digestsJSON []byte

// digestFile is the layout of digests.json.
type digestFile struct {
	Budget uint64                       `json:"budget"`
	Seeds  map[string]map[string]string `json:"seeds"`
}

// storedDigests returns the recorded unit digests for a seed, or none
// when the seed or budget was never recorded.
func storedDigests(seed int64, budget uint64) (map[string]string, error) {
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if f.Budget != budget {
		return nil, nil
	}
	return f.Seeds[strconv.FormatInt(seed, 10)], nil
}

// recordDigests merges observed digests for a seed into the digest file
// at path, starting it afresh when it was recorded at another budget.
func recordDigests(path string, seed int64, budget uint64, observed map[string]string) error {
	var f digestFile
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	if f.Budget != budget || f.Seeds == nil {
		f = digestFile{Budget: budget, Seeds: map[string]map[string]string{}}
	}
	key := strconv.FormatInt(seed, 10)
	if f.Seeds[key] == nil {
		f.Seeds[key] = map[string]string{}
	}
	//atlint:ordered copies into another map, whose JSON encoding sorts its keys
	for unit, d := range observed {
		f.Seeds[key][unit] = d
	}
	return writeJSON(path, f)
}
