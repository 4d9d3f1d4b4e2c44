package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/machine"
	"atscale/internal/perf"
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
	flatgoldCompare(t, "virt-tables.txt", []byte(out))
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

// TestVirtCampaignCompletes: every virt unit, the multi-tenant ones
// included, is announced, started and finished on the live hub, so a
// virt campaign reaches 100%.
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

// TestFlatGoldTenants locks the consolidation study's units: each
// tenant count's table row plus its full counter delta, on a fresh
// machine and on a pooled one renewed after a dirtying virt unit.
func TestFlatGoldTenants(t *testing.T) {
	for _, renewed := range []bool{false, true} {
		for _, n := range []int{1, 2, 4} {
			name := fmt.Sprintf("n%d", n)
			if renewed {
				name = "renewed-" + name
			}
			t.Run(name, func(t *testing.T) {
				flatgoldCompare(t, fmt.Sprintf("counters-tenants%d.txt", n), []byte(flatgoldTenants(t, n, renewed)))
			})
		}
	}
}

// flatgoldTenants renders the n-tenant unit as a stable text dump. With
// renewed set, a four-tenant unit under another seed first dirties a
// one-machine pool, and the unit must run on that machine, renewed.
func flatgoldTenants(t *testing.T, n int, renewed bool) string {
	t.Helper()
	cfg := testConfig()
	cfg.Budget = 60_000
	virtualizeTenants(&cfg)
	var parked []*machine.Machine
	if renewed {
		cfg.machines = newMachinePool(1)
		dirty := cfg
		dirty.Seed++
		if _, err := Run(&dirty, tenantSpec(dirty.Seed), 4, arch.Page4K); err != nil {
			t.Fatalf("dirtying unit: %v", err)
		}
		parked = pooled(cfg.machines)
	}
	r, err := Run(&cfg, tenantSpec(cfg.Seed), uint64(n), arch.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if renewed {
		if after := pooled(cfg.machines); len(parked) != 1 || len(after) != 1 || after[0] != parked[0] {
			t.Fatal("the unit did not run on the renewed machine")
		}
	}
	return fmt.Sprintf("row: %+v\n", tenantRow(n, cfg.Budget, &r)) + r.Counters.Format()
}

// TestVirtCampaignTracedParallel: a traced, checked virt campaign on
// four workers publishes every unit under its own name, so the refute
// report keeps one outcome per published unit and each unit's timeline
// process has a single writer. Under -race this also shows that no two
// units share a timeline process.
func TestVirtCampaignTracedParallel(t *testing.T) {
	cfg := testConfig()
	cfg.Budget = 20_000
	cfg.Parallelism = 4
	cfg.Trace = telemetry.New()
	cfg.Refute = NewCampaignChecker()
	cfg.Events = telemetry.NewHub()
	if _, err := VirtExperiment(NewSession(cfg)); err != nil {
		t.Fatal(err)
	}
	events := cfg.Events.History()
	seen := make(map[string]bool, len(events))
	for _, ev := range events {
		if seen[ev.Unit] {
			t.Errorf("unit %q published twice", ev.Unit)
		}
		seen[ev.Unit] = true
	}
	// Tiny: two rungs native and nested, five matrix cells, three
	// tenant counts.
	if len(events) != 12 {
		t.Errorf("%d units published, want 12", len(events))
	}
	if got := cfg.Refute.Report().Units; got != len(events) {
		t.Errorf("refute report holds %d units, %d published", got, len(events))
	}
	var buf bytes.Buffer
	if err := cfg.Trace.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.Validate(buf.Bytes()); err != nil {
		t.Errorf("virt timeline fails validation: %v", err)
	}
}

// TestVirtUnitsDistinctUnderNestedSession: under a session config that
// is already nested (-virt), alone and with the guest pages pinned
// (-guest-pages), every virt unit keeps a name of its own, and the
// ladder's native rungs run native: they book no EPT counters.
func TestVirtUnitsDistinctUnderNestedSession(t *testing.T) {
	p4k, p2m := arch.Page4K, arch.Page2M
	for name, guest := range map[string]*arch.PageSize{"virt": nil, "guest-4KB": &p4k, "guest-2MB": &p2m} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Budget = 20_000
			cfg.System = virtualize(cfg.System, arch.Page4K)
			cfg.GuestPages = guest
			cfg.Events = telemetry.NewHub()
			cfg.Topdown = NewTopdownCollector()
			if _, err := VirtExperiment(NewSession(cfg)); err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]bool)
			native := 0
			for _, ev := range cfg.Events.History() {
				if seen[ev.Unit] {
					t.Errorf("two units named %q", ev.Unit)
				}
				seen[ev.Unit] = true
				if strings.Contains(ev.Unit, "+virt") {
					continue
				}
				native++
				for _, e := range perf.Events() {
					if n := cfg.Topdown.units[ev.Unit].Get(e); strings.Contains(e.String(), "ept") && n != 0 {
						t.Errorf("native unit %q books %s = %d", ev.Unit, e, n)
					}
				}
			}
			if native != 2 {
				t.Errorf("%d native units, want the tiny ladder's 2", native)
			}
		})
	}
}
