package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of a compare row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a gain claim may rest on.
const minPairs = 10

// comparison is one metric on one workload, parent against change.
type comparison struct {
	Workload, Metric, Unit string
	Parent, Change         summary
	Pairs, Wins            int
	// Worse is the change's median relative to the parent's, signed so
	// that positive means worse.
	Worse   float64
	Verdict string
}

// judge applies the gain and regression rules to one metric's samples,
// paired in order (parent[i] ran next to change[i]):
//
//   - improved: at least minPairs pairs, the change wins at least nine
//     tenths of them (ties count for neither side), and its median beats
//     the parent's by more than the parent's quartile distance;
//   - unresolved: the parent's quartile distance is wider than the bound,
//     unless every change sample beats every parent sample (unchanged) or
//     every one is worse by more than the bound (regressed);
//   - regressed: the change's median is worse by more than the bound;
//   - unchanged otherwise.
func judge(d metricDecl, parent, change []float64) comparison {
	c := comparison{Metric: d.Name, Unit: d.Unit,
		Parent: summarize(d.Unit, parent), Change: summarize(d.Unit, change)}
	better := func(a, b float64) bool {
		if d.Better == higher {
			return a > b
		}
		return a < b
	}
	c.Pairs = min(len(parent), len(change))
	for i := 0; i < c.Pairs; i++ {
		if better(change[i], parent[i]) {
			c.Wins++
		}
	}
	pm, cm := c.Parent.Median, c.Change.Median
	c.Worse = ratio(cm-pm, math.Abs(pm))
	if d.Better == higher {
		c.Worse = -c.Worse
	}
	gap := math.Abs(cm - pm)
	switch {
	case c.Pairs >= minPairs && 10*c.Wins >= 9*c.Pairs && c.Worse < 0 && gap > c.Parent.iqr():
		c.Verdict = improved
	case c.Parent.iqr() > d.Bound*math.Abs(pm):
		c.Verdict = unresolved
		if all(change, parent, better) {
			c.Verdict = unchanged
		} else if c.Worse > d.Bound && all(parent, change, better) {
			c.Verdict = regressed
		}
	case c.Worse > d.Bound:
		c.Verdict = regressed
	default:
		c.Verdict = unchanged
	}
	return c
}

// all reports whether every sample of a beats every sample of b.
func all(a, b []float64, better func(x, y float64) bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// compareRuns judges every end-to-end metric on every workload both run
// files measured untraced. Samples are every pass of every run of the
// workload, in file order, so alternating single-pass runs of the parent
// and the change (-reps 1, appended with -out) pair up as they ran.
// A change that failed more unit runs than the parent claims no gain.
func compareRuns(parent, change runFile) []comparison {
	type side struct {
		samples           map[string][]float64
		attempted, failed int
	}
	collect := func(f runFile) (map[string]*side, []string) {
		by := map[string]*side{}
		var order []string
		for _, r := range f.Runs {
			if r.Trace != 0 {
				continue
			}
			s := by[r.Workload]
			if s == nil {
				s = &side{samples: map[string][]float64{}}
				by[r.Workload] = s
				order = append(order, r.Workload)
			}
			s.attempted += r.Attempted
			s.failed += r.Failed
			//atlint:ordered each key appends to its own slice, so visiting order cannot show
			for name, m := range r.Metrics {
				s.samples[name] = append(s.samples[name], m.Samples...)
			}
		}
		return by, order
	}
	ps, order := collect(parent)
	cs, _ := collect(change)
	var rows []comparison
	for _, w := range order {
		p, c := ps[w], cs[w]
		if c == nil {
			continue
		}
		for _, d := range endToEnd {
			row := judge(d, p.samples[d.Name], c.samples[d.Name])
			row.Workload = w
			if row.Verdict == improved && ratio(float64(c.failed), float64(c.attempted)) > ratio(float64(p.failed), float64(p.attempted)) {
				row.Verdict = unchanged
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// compareMain implements `atbench compare parent.json change.json`. It
// exits 1 when any row regressed.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: atbench compare parent.json change.json")
		return 2
	}
	parent, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "atbench:", err)
		return 2
	}
	change, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "atbench:", err)
		return 2
	}
	rows := compareRuns(parent, change)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "atbench: the files share no untraced workload")
		return 2
	}
	fmt.Fprintf(stdout, "%-13s %-18s %12s %12s %12s %12s %8s %7s  %s\n",
		"workload", "metric", "parent", "parent iqr", "change", "change iqr", "worse", "wins", "verdict")
	status := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-13s %-18s %12.6g %12.6g %12.6g %12.6g %+7.2f%% %3d/%-3d  %s\n",
			r.Workload, r.Metric, r.Parent.Median, r.Parent.iqr(), r.Change.Median, r.Change.iqr(),
			100*r.Worse, r.Wins, r.Pairs, r.Verdict)
		if r.Verdict == regressed {
			status = 1
		}
	}
	return status
}
