package core

import (
	"bytes"
	"testing"

	"atscale/internal/refute"
	"atscale/internal/telemetry"
	"atscale/internal/workloads"
)

// TestRefuteSweepHolds is the repo-level golden check: a real (tiny)
// sweep, checked against the full identity registry, must hold every
// identity — the simulator's counters are the registry's ground truth.
func TestRefuteSweepHolds(t *testing.T) {
	cfg := testConfig()
	cfg.Refute = NewCampaignChecker()
	spec, err := workloads.ByName("stride-synth")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepOverhead(&cfg, spec); err != nil {
		t.Fatal(err)
	}
	rep := cfg.Refute.Report()
	if rep.Units == 0 {
		t.Fatal("no units checked")
	}
	if rep.TotalViolations != 0 {
		t.Fatalf("identities violated on a real sweep:\n%s", rep.Render())
	}
	for _, ir := range rep.Identities {
		if ir.Scope == "always" && ir.Checked == 0 {
			t.Errorf("always-scope identity %s never checked", ir.Name)
		}
	}
}

// TestRefuteSamplingUnitChecked: arming the sampler brings the ring-
// accounting identities into scope on a real run — including under
// forced overflow (tiny ring), the regime where drop accounting can
// actually be wrong.
func TestRefuteSamplingUnitChecked(t *testing.T) {
	cfg := testConfig()
	cfg.Refute = refute.NewChecker()
	cfg.SamplePeriod = 257
	cfg.SampleBuffer = 8
	spec, err := workloads.ByName("stride-synth")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(&cfg, spec, 20, policies[0]); err != nil {
		t.Fatal(err)
	}
	rep := cfg.Refute.Report()
	if rep.TotalViolations != 0 {
		t.Fatalf("sampling identities violated:\n%s", rep.Render())
	}
	sampling := 0
	for _, ir := range rep.Identities {
		if ir.Scope == "sampling" && ir.Checked > 0 {
			sampling++
		}
	}
	if sampling == 0 {
		t.Error("no sampling-scope identity checked despite an armed sampler")
	}
}

// TestRefuteReportSerialParallelIdentical: the refutation report is part
// of the campaign's deterministic output, so a parallel sweep must
// produce byte-identical JSON to the serial one.
func TestRefuteReportSerialParallelIdentical(t *testing.T) {
	report := func(parallelism int) []byte {
		cfg := testConfig()
		cfg.Parallelism = parallelism
		cfg.pool = make(limiter, cfg.parallelism())
		cfg.Refute = refute.NewChecker()
		spec, err := workloads.ByName("stride-synth")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SweepOverhead(&cfg, spec); err != nil {
			t.Fatal(err)
		}
		return cfg.Refute.Report().JSON()
	}
	serial, parallel := report(1), report(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("refute report depends on the schedule:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestRefuteExperimentRuns: the adversarial experiment completes at the
// tiny preset, covers every variant, and holds every identity; its
// outcomes flow into the session-level checker.
func TestRefuteExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial sweep is the slowest core test")
	}
	cfg := testConfig()
	cfg.Budget = 60_000
	// The session checker must run the campaign registry: the
	// experiment's per-variant checkers do, and Absorb panics on a
	// registry-length mismatch by design.
	cfg.Refute = NewCampaignChecker()
	cfg.Events = telemetry.NewHub()
	s := NewSession(cfg)
	res, err := RefuteExperiment(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(refuteVariants()) {
		t.Fatalf("got %d variant rows, want %d", len(res.Rows), len(refuteVariants()))
	}
	for _, row := range res.Rows {
		if row.Units == 0 || row.Checked == 0 {
			t.Errorf("variant %s checked nothing: %+v", row.Variant, row)
		}
		if row.Violations != 0 {
			t.Errorf("variant %s violated %d identities", row.Variant, row.Violations)
		}
	}
	if res.Merged == nil || res.Merged.TotalViolations != 0 {
		t.Errorf("merged report: %+v", res.Merged)
	}
	out := res.Render()
	for _, needle := range []string{"base", "hashed-pt", "virt-tenants4", "eq1_product", "HOLDS"} {
		if !bytes.Contains([]byte(out), []byte(needle)) {
			t.Errorf("rendered output lacks %q", needle)
		}
	}
	flatgoldCompare(t, "refute-tables.txt", []byte(out))
	// The session checker absorbed every variant's units.
	if got := cfg.Refute.Report().Units; got == 0 {
		t.Error("session checker absorbed no units")
	}
	// Every variant's units, the tenant kernels included, were counted
	// and finished on the live hub.
	st := cfg.Events.Stats()
	if st.UnitsStarted != st.UnitsTotal || st.UnitsDone != st.UnitsTotal || st.BusyWorkers != 0 {
		t.Errorf("live stats started/done/total/busy = %d/%d/%d/%d",
			st.UnitsStarted, st.UnitsDone, st.UnitsTotal, st.BusyWorkers)
	}
	if st.IdentitiesChecked == 0 || st.IdentitiesViolated != 0 {
		t.Errorf("live identity counts %d checked, %d violated", st.IdentitiesChecked, st.IdentitiesViolated)
	}
}

// TestRefuteHubCounts: identity results reach the live hub's stats —
// the mid-campaign view the heartbeat and /stats expose — through the
// unit's event.
func TestRefuteHubCounts(t *testing.T) {
	cfg := testConfig()
	cfg.Refute = refute.NewChecker()
	cfg.Events = telemetry.NewHub()
	spec, err := workloads.ByName("stride-synth")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(&cfg, spec, 20, policies[0]); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Events.Stats()
	if snap.IdentitiesChecked == 0 {
		t.Error("hub saw no identity checks")
	}
	if snap.IdentitiesViolated != 0 {
		t.Errorf("hub reports %d violations on a clean run", snap.IdentitiesViolated)
	}
	events := cfg.Events.History()
	if len(events) != 1 || events[0].IdentitiesChecked != snap.IdentitiesChecked {
		t.Errorf("identity results not carried by the unit event: %d events, stats %+v", len(events), snap)
	}
}

// TestRefuteTimelineTrack: with tracing on, a checked unit's process
// carries a refute track whose counter samples record the verdict, and
// the export still validates.
func TestRefuteTimelineTrack(t *testing.T) {
	cfg := testConfig()
	cfg.Refute = refute.NewChecker()
	cfg.Trace = telemetry.New()
	spec, err := workloads.ByName("stride-synth")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(&cfg, spec, 20, policies[0]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Trace.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.Validate(buf.Bytes()); err != nil {
		t.Fatalf("traced refute campaign fails validation: %v", err)
	}
	for _, needle := range []string{`"refute"`, "identities_checked", "identities_violated"} {
		if !bytes.Contains(buf.Bytes(), []byte(needle)) {
			t.Errorf("timeline lacks %q", needle)
		}
	}
}
