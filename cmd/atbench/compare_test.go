package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// wall is a lower-is-better metric with a 10% bound.
var wall = metricDecl{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.10}

func repeat(vs ...float64) []float64 {
	var out []float64
	for i := 0; i < 10; i++ {
		out = append(out, vs[i%len(vs)])
	}
	return out
}

func TestJudge(t *testing.T) {
	cases := []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"clear win", repeat(10.0, 10.1, 9.9), repeat(8.0, 8.1, 7.9), improved},
		{"noise", repeat(10.0, 10.1, 9.9), repeat(10.05, 9.95, 10.0), unchanged},
		{"regression past the bound", repeat(10.0, 10.1, 9.9), repeat(12.0, 12.1, 11.9), regressed},
		{"within the bound", repeat(10.0, 10.1, 9.9), repeat(10.5, 10.6, 10.4), unchanged},
		{"spread wider than the bound", repeat(8, 12, 10, 14, 6), repeat(9, 13, 11, 15, 7), unresolved},
		{"wide spread, every change sample better", repeat(20, 26, 32), repeat(17, 18, 19), unchanged},
		{"too few pairs for a gain", []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, unchanged},
	}
	for _, c := range cases {
		if got := judge(wall, c.parent, c.change); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (worse %+.3f, wins %d/%d, parent iqr %.3g), want %s",
				c.name, got.Verdict, got.Worse, got.Wins, got.Pairs, got.Parent.iqr(), c.want)
		}
	}
}

// TestJudgeHigherIsBetter flips the direction for throughput metrics.
func TestJudgeHigherIsBetter(t *testing.T) {
	rate := metricDecl{Name: "sim_maccess_per_s", Unit: "Maccess/s", Better: higher, Bound: 0.10}
	if got := judge(rate, repeat(10.0, 10.1, 9.9), repeat(8.0, 8.1, 7.9)); got.Verdict != regressed {
		t.Errorf("slower rate: %s, want regressed", got.Verdict)
	}
	if got := judge(rate, repeat(10.0, 10.1, 9.9), repeat(12.0, 12.1, 11.9)); got.Verdict != improved {
		t.Errorf("faster rate: %s, want improved", got.Verdict)
	}
}

// TestCompareFiles round-trips two run files through compareMain: a
// change that slowed wall_s past its bound makes the command exit 1, and
// a change that failed more units claims no gain.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	record := func(wallS []float64, failed int) runRecord {
		rec := runRecord{Workload: "walk-4k", Attempted: 50, Failed: failed, Metrics: map[string]summary{}}
		for _, d := range endToEnd {
			v := wallS
			if d.Name != "wall_s" {
				v = repeat(1)
			}
			rec.Metrics[d.Name] = summarize(d.Unit, v)
		}
		return rec
	}
	write := func(name string, recs ...runRecord) string {
		p := filepath.Join(dir, name)
		if err := appendRecords(p, recs); err != nil {
			t.Fatal(err)
		}
		return p
	}
	parent := write("parent.json", record(repeat(10.0, 10.1, 9.9), 0))
	slower := write("slower.json", record(repeat(13.0, 13.1, 12.9), 0))
	var out bytes.Buffer
	if status := compareMain([]string{parent, slower}, &out); status != 1 {
		t.Errorf("regression: exit %d, want 1\n%s", status, out.String())
	}
	if !strings.Contains(out.String(), regressed) {
		t.Errorf("regression not reported:\n%s", out.String())
	}

	pf, err := readRuns(parent)
	if err != nil {
		t.Fatal(err)
	}
	faster := runFile{Runs: []runRecord{record(repeat(8.0, 8.1, 7.9), 0)}}
	if rows := compareRuns(pf, faster); rows[0].Verdict != improved {
		t.Errorf("faster: %s, want improved", rows[0].Verdict)
	}
	failing := runFile{Runs: []runRecord{record(repeat(8.0, 8.1, 7.9), 1)}}
	if rows := compareRuns(pf, failing); rows[0].Verdict != unchanged {
		t.Errorf("faster but failing more units: %s, want unchanged", rows[0].Verdict)
	}
}
