package core

import (
	"bytes"
	"strings"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/telemetry"
	_ "atscale/internal/workloads/all"
)

// timelineCampaign runs the wcpi experiment (the bc-urand ladder) with
// tracing on and returns the exported timeline bytes.
func timelineCampaign(t *testing.T, parallelism int) []byte {
	t.Helper()
	cfg := testConfig()
	cfg.Budget = 60_000
	cfg.Parallelism = parallelism
	cfg.Trace = telemetry.New()
	s := NewSession(cfg)
	if _, err := WCPIExperiment(s); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTimelineDeterministic is the tentpole acceptance test: the same
// campaign traced twice exports byte-identical timelines, and the export
// passes the structural validator with real content on it.
func TestTimelineDeterministic(t *testing.T) {
	a := timelineCampaign(t, 1)
	b := timelineCampaign(t, 1)
	if !bytes.Equal(a, b) {
		t.Error("same-seed timelines differ between runs")
	}
	stats, err := telemetry.Validate(a)
	if err != nil {
		t.Fatalf("timeline failed validation: %v", err)
	}
	if stats.Spans == 0 || stats.Slices == 0 || stats.Instants == 0 {
		t.Errorf("timeline suspiciously empty: %+v", stats)
	}
	// Every (rung, page size) unit of the sweep appears on the campaign
	// track and as a detail process.
	if n := bytes.Count(a, []byte(`"name":"bc-urand`)); n == 0 {
		t.Error("no bc-urand unit events in timeline")
	}
}

// TestTimelineSerialParallelIdentical: the scheduler must not leak into
// the timeline — a parallel campaign exports the same bytes as a serial
// one (worker assignment and completion order are live-hub data,
// never trace data). Run with -race this also proves the tracer's
// single-writer discipline under the concurrent scheduler.
func TestTimelineSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign comparison")
	}
	serial := timelineCampaign(t, 1)
	parallel := timelineCampaign(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Error("parallel timeline differs from serial")
	}
}

// TestTimelinePhases: the workload phase track brackets setup and steady
// spans for each unit.
func TestTimelinePhases(t *testing.T) {
	data := timelineCampaign(t, 1)
	s := string(data)
	for _, phase := range []string{`"name":"setup"`, `"name":"steady"`} {
		if !strings.Contains(s, phase) {
			t.Errorf("timeline missing phase %s", phase)
		}
	}
	if !strings.Contains(s, `"name":"prefaulted_pages"`) {
		t.Error("timeline missing prefault counter annotation")
	}
}

// tracedUnit runs one gups-rand unit with tracing on, after mutate has
// adjusted the config, and returns the exported timeline bytes.
func tracedUnit(t *testing.T, mutate func(*RunConfig), ps arch.PageSize) []byte {
	t.Helper()
	cfg := testConfig()
	cfg.Budget = 30_000
	cfg.Trace = telemetry.New()
	mutate(&cfg)
	spec := mustSpec(t, "gups-rand")
	if _, err := Run(&cfg, spec, spec.Ladder[0], ps); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// virtTimeline is the traced nested-paging unit: 4 KB guest pages over
// the default EPT, every walk-serving cache enabled.
func virtTimeline(t *testing.T) []byte {
	t.Helper()
	return tracedUnit(t, func(cfg *RunConfig) { cfg.System.Virt = arch.DefaultVirt() }, arch.Page4K)
}

// TestTimelineVirtAndHashed: the nested walker's guest/EPT sub-tracks
// and the hashed walker's probe slices validate too.
func TestTimelineVirtAndHashed(t *testing.T) {
	virt := virtTimeline(t)
	if _, err := telemetry.Validate(virt); err != nil {
		t.Errorf("virt timeline invalid: %v", err)
	}
	for _, track := range []string{`"name":"walker (guest)"`, `"name":"walker (ept)"`, `"name":"ept walk"`} {
		if !bytes.Contains(virt, []byte(track)) {
			t.Errorf("virt timeline missing %s", track)
		}
	}

	hashed := tracedUnit(t, func(cfg *RunConfig) { cfg.System.PageTable = "hashed" }, arch.Page4K)
	if _, err := telemetry.Validate(hashed); err != nil {
		t.Errorf("hashed timeline invalid: %v", err)
	}
	if !bytes.Contains(hashed, []byte(`"name":"probe"`)) {
		t.Error("hashed timeline missing probe slices")
	}
}

// TestHubCampaign: the live hub sees every unit start and finish,
// workers return to idle, and the aggregate WCPI is real.
func TestHubCampaign(t *testing.T) {
	cfg := testConfig()
	cfg.Budget = 30_000
	cfg.Parallelism = 4
	cfg.Events = telemetry.NewHub()
	spec := mustSpec(t, "stride-synth")
	if _, err := SweepOverhead(&cfg, spec); err != nil {
		t.Fatal(err)
	}
	s := cfg.Events.Stats()
	wantUnits := uint64(len(spec.Sizes(cfg.Preset)) * 3) // three page policies
	if s.UnitsStarted != wantUnits || s.UnitsDone != wantUnits {
		t.Errorf("units started/done = %d/%d, want %d", s.UnitsStarted, s.UnitsDone, wantUnits)
	}
	if s.BusyWorkers != 0 {
		t.Errorf("busy workers = %d after campaign end", s.BusyWorkers)
	}
	if s.Instructions == 0 || s.WCPI <= 0 {
		t.Errorf("aggregates empty: %+v", s)
	}
}

// TestEventProgressMatchesSeq: under a parallel schedule every event's
// units_done equals its seq — the hub stamps progress in the same
// critical section that numbers the event, so no unit can finish
// between the two.
func TestEventProgressMatchesSeq(t *testing.T) {
	cfg := testConfig()
	cfg.Budget = 30_000
	cfg.Parallelism = 4
	cfg.Events = telemetry.NewHub()
	spec := mustSpec(t, "stride-synth")
	if _, err := SweepOverhead(&cfg, spec); err != nil {
		t.Fatal(err)
	}
	events := cfg.Events.History()
	if len(events) != len(spec.Sizes(cfg.Preset))*3 {
		t.Fatalf("%d events for %d units", len(events), len(spec.Sizes(cfg.Preset))*3)
	}
	for _, ev := range events {
		if ev.UnitsDone != ev.Seq {
			t.Errorf("event %d (%s): units_done %d", ev.Seq, ev.Unit, ev.UnitsDone)
		}
		if ev.UnitsTotal != uint64(len(events)) {
			t.Errorf("event %d: units_total %d, want %d", ev.Seq, ev.UnitsTotal, len(events))
		}
	}
}
