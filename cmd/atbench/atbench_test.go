package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"atscale/internal/arch"
	"atscale/internal/workloads"
)

// benchmarkFile is the layout of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesDeclarations holds BENCHMARK.json to the
// workloads and metrics this command declares.
func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, atbench %d", len(f.Workloads), len(benchWorkloads))
	}
	for i, w := range benchWorkloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, atbench {%s %s}", i, f.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n BENCHMARK.json %+v\n atbench        %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer:\n BENCHMARK.json %+v\n atbench        %+v", f.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(f.Paths, []string{"cmd/atbench"}) {
		t.Errorf("paths = %v", f.Paths)
	}
}

// tiny returns w with every unit at its spec's smallest ladder rung, so
// all four workloads run in seconds even under the race detector. Units
// that differed only in their rung collapse into one.
func tiny(t *testing.T, w benchWorkload) benchWorkload {
	t.Helper()
	out := w
	out.units = nil
	seen := map[unit]bool{}
	for _, u := range w.units {
		spec, err := workloads.ByName(u.Spec)
		if err != nil {
			t.Fatal(err)
		}
		u.Param = spec.Ladder[0]
		if !seen[u] {
			seen[u] = true
			out.units = append(out.units, u)
		}
	}
	return out
}

const tinyBudget = 20_000

// resultMetrics marshals the result line of one record and returns its
// correct flag and metrics as a reader of the JSON sees them.
func resultMetrics(t *testing.T, rec runRecord) (bool, map[string]resultMetric) {
	t.Helper()
	b, err := json.Marshal(resultFor([]runRecord{rec}))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct bool                    `json:"correct"`
		Metrics map[string]resultMetric `json:"metrics"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	return got.Correct, got.Metrics
}

// checkResult requires a record's result line to be correct and to carry
// exactly the declared metrics, each with its declared unit.
func checkResult(t *testing.T, rec runRecord, decls []metricDecl) {
	t.Helper()
	for _, prob := range rec.Problems {
		t.Error(prob)
	}
	correct, metrics := resultMetrics(t, rec)
	if !correct {
		t.Errorf("%s trace %d: correct = false", rec.Workload, rec.Trace)
	}
	if len(metrics) != len(decls) {
		t.Errorf("%s trace %d: %d metrics, want %d", rec.Workload, rec.Trace, len(metrics), len(decls))
	}
	for _, d := range decls {
		if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s trace %d: metric %s = %+v, want unit %s", rec.Workload, rec.Trace, d.Name, m, d.Unit)
		}
	}
}

// TestTinyRunAllWorkloads runs every workload in-process twice at a
// 20k-access budget: every unit must pass its checks with the same
// counter digest in both runs, and the result line must carry every
// end-to-end metric declared in BENCHMARK.json with its unit.
func TestTinyRunAllWorkloads(t *testing.T) {
	decls := readBenchmarkFile(t).EndToEnd
	for _, bw := range benchWorkloads {
		t.Run(bw.name, func(t *testing.T) {
			t.Parallel()
			w := tiny(t, bw)
			rec := runRecord{Workload: w.name}
			rec.fill([]passSample{runPass(w, 2024, tinyBudget, nil), runPass(w, 2024, tinyBudget, nil)}, nil)
			if rec.Attempted != 2*len(w.units) {
				t.Errorf("%d unit runs attempted, want %d", rec.Attempted, 2*len(w.units))
			}
			checkResult(t, rec, decls)
		})
	}
}

// TestTinyTracedPass traces one unit of each machine kind the ladder
// handles (a native radix machine, a NUMA scheme machine, a hashed and
// a nested one): every traced run must match its untraced run's digest,
// every replay must reproduce its live counters, every unit gets an
// attribution and spans, and the result line must carry every per-layer
// metric declared in BENCHMARK.json with its unit.
func TestTinyTracedPass(t *testing.T) {
	w := benchWorkload{name: "mixed", units: []unit{
		{"mcf-rand", 4096, arch.Page4K, radix},
		{"gups-rand", 20, arch.Page2M, mitosis},
		{"gups-rand", 20, arch.Page4K, hashed},
		{"mcf-rand", 4096, arch.Page4K, virtEPT2M},
	}}
	pt := runPass(w, 7, tinyBudget, &tracing{until: time.Now(), spans: newSpanLog()})
	rec := runRecord{Workload: w.name, Trace: 1}
	rec.fill([]passSample{pt}, nil)
	if rec.Attempted != len(w.units) {
		t.Errorf("%d unit runs attempted, want %d", rec.Attempted, len(w.units))
	}
	for _, u := range pt.Units {
		if u.Layers == nil {
			t.Fatalf("traced unit %s has no attribution", u.Unit)
		}
		want := len(rungNames)
		if u.Layers.Variant == hashed || u.Layers.Variant == virtEPT2M {
			want = rungWalker
		}
		if got := len(u.Layers.Ladder.Layers) + 1; got != want {
			t.Errorf("%s: ladder has %d rungs, want %d", u.Unit, got, want)
		}
	}
	if len(pt.Spans) == 0 {
		t.Errorf("traced pass recorded no spans")
	}
	checkResult(t, rec, readBenchmarkFile(t).PerLayer)
}

// TestCheckPassesCountsEveryFailure covers each way a unit run fails.
func TestCheckPassesCountsEveryFailure(t *testing.T) {
	ok := unitSample{Unit: "u", Checked: 5, Digest: "aa"}
	cases := []struct {
		name   string
		units  []unitSample
		stored map[string]string
		failed int
	}{
		{"clean", []unitSample{ok, ok}, map[string]string{"u": "aa"}, 0},
		{"error", []unitSample{ok, {Unit: "u", Err: "boom", Checked: 5, Digest: "aa"}}, nil, 1},
		{"vacuous", []unitSample{{Unit: "u", Digest: "aa"}}, nil, 1},
		{"recorded digest", []unitSample{ok}, map[string]string{"u": "bb"}, 1},
		{"digest drift between passes", []unitSample{ok, {Unit: "u", Checked: 5, Digest: "bb"}}, nil, 1},
	}
	for _, c := range cases {
		var passes []passSample
		for _, u := range c.units {
			passes = append(passes, passSample{Units: []unitSample{u}})
		}
		attempted, failed, _ := checkPasses(passes, c.stored)
		if attempted != len(c.units) || failed != c.failed {
			t.Errorf("%s: %d/%d failed, want %d/%d", c.name, failed, attempted, c.failed, len(c.units))
		}
	}
}
