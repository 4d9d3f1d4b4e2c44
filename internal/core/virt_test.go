package core

import (
	"fmt"
	"strings"
	"testing"

	"atscale/internal/telemetry"
	_ "atscale/internal/workloads/all"
)

// TestVirtExperimentProducesAllTables runs the full virtualization
// experiment on the tiny preset and sanity-checks its physics: nested
// WCPI never beats native on the same rung, the loads/walk matrix orders
// 4KB-EPT above 1GB-EPT, and multi-tenant consolidation keeps nTLB hit
// rates meaningful.
func TestVirtExperimentProducesAllTables(t *testing.T) {
	cfg := testConfig()
	cfg.Budget = 60_000
	s := NewSession(cfg)
	r, err := VirtExperiment(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sweep) == 0 || len(r.Matrix) != 6 || len(r.Tenants) != 3 {
		t.Fatalf("result shape: sweep=%d matrix=%d tenants=%d", len(r.Sweep), len(r.Matrix), len(r.Tenants))
	}
	for _, row := range r.Sweep {
		if row.WCPINested < row.WCPINative {
			t.Errorf("rung %s: nested WCPI %g below native %g", fmt.Sprint(row.Footprint), row.WCPINested, row.WCPINative)
		}
		if row.WCPINested > 0 && (row.EPTShare <= 0 || row.EPTShare >= 1) {
			t.Errorf("rung %s: EPT share %g outside (0,1)", fmt.Sprint(row.Footprint), row.EPTShare)
		}
	}
	// The analytic cold-walk ordering (more EPT levels -> more loads) is
	// pinned by the walker's own tests; with warm nTLB/PSC state the
	// measured loads/walk only has to be sane.
	for _, row := range r.Matrix {
		if row.WCPI <= 0 || row.LoadsPerWalk <= 0 {
			t.Errorf("matrix %s/%s: WCPI %g loads/walk %g, want positive",
				row.GuestPages, row.EPTPages, row.WCPI, row.LoadsPerWalk)
		}
		if row.EPTShare < 0 || row.EPTShare >= 1 {
			t.Errorf("matrix %s/%s: EPT share %g outside [0,1)", row.GuestPages, row.EPTPages, row.EPTShare)
		}
	}
	for _, row := range r.Tenants {
		if row.NTLBHitRate <= 0 || row.NTLBHitRate > 1 {
			t.Errorf("tenants=%d: nTLB hit rate %g", row.Tenants, row.NTLBHitRate)
		}
	}
	if r.Tenants[0].Switches != 0 || r.Tenants[1].Switches == 0 {
		t.Errorf("switch counts: %d (n=1), %d (n=2)", r.Tenants[0].Switches, r.Tenants[1].Switches)
	}
	out := r.Render()
	for _, want := range []string{"native vs nested", "page-size matrix", "multi-tenant"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if CSV(r) == "" {
		t.Error("empty CSV")
	}
}

// TestVirtSweepParallelMatchesSerial extends the scheduler's determinism
// contract to the virtualization campaign: Parallelism 8 renders
// byte-identical tables and CSV to Parallelism 1, multi-tenant kernel
// included.
func TestVirtSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign comparison")
	}
	run := func(parallelism int) (string, string) {
		cfg := testConfig()
		cfg.Budget = 60_000
		cfg.Parallelism = parallelism
		s := NewSession(cfg)
		r, err := VirtExperiment(s)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render(), CSV(r)
	}
	serialText, serialCSV := run(1)
	parallelText, parallelCSV := run(8)
	if serialText != parallelText {
		t.Errorf("parallel virt render differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialText, parallelText)
	}
	if serialCSV != parallelCSV {
		t.Errorf("parallel virt CSV differs from serial")
	}
}

// TestVirtCampaignCompletes: every virt unit — the multi-tenant runs
// that bypass Run included — is announced, started and finished on the
// live hub, so a virt campaign reaches 100%.
func TestVirtCampaignCompletes(t *testing.T) {
	cfg := testConfig()
	cfg.Budget = 30_000
	cfg.Parallelism = 2
	cfg.Events = telemetry.NewHub()
	if _, err := VirtExperiment(NewSession(cfg)); err != nil {
		t.Fatal(err)
	}
	s := cfg.Events.Stats()
	if s.UnitsTotal == 0 || s.UnitsStarted != s.UnitsTotal || s.UnitsDone != s.UnitsTotal {
		t.Errorf("units started/done/total = %d/%d/%d, want all equal", s.UnitsStarted, s.UnitsDone, s.UnitsTotal)
	}
	if s.BusyWorkers != 0 {
		t.Errorf("busy workers = %d after campaign end", s.BusyWorkers)
	}
}
