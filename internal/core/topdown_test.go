package core

import (
	"strings"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/refute"
	"atscale/internal/telemetry"
	"atscale/internal/topdown"
)

// TestCampaignIdentities: the combined registry is the base set plus
// the tree's conservation laws, with no name collisions — the contract
// that keeps every Absorb/Merge site compatible.
func TestCampaignIdentities(t *testing.T) {
	ids := CampaignIdentities()
	if want := len(refute.Identities()) + len(topdown.Identities()); len(ids) != want {
		t.Fatalf("registry has %d identities, want %d", len(ids), want)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id.Name] {
			t.Errorf("duplicate identity name %q", id.Name)
		}
		seen[id.Name] = true
	}
	if !seen["topdown_cycles_conserves"] || !seen["eq1_product"] {
		t.Error("registry missing expected members from either half")
	}
}

// TestTopdownSerialParallelIdentical is the flatgold-style schedule
// test for attribution: the campaign tree rendered from a parallel
// sweep must be byte-identical to the serial one's.
func TestTopdownSerialParallelIdentical(t *testing.T) {
	render := func(parallelism int) string {
		cfg := testConfig()
		cfg.Budget = 60_000
		cfg.Parallelism = parallelism
		cfg.pool = make(limiter, cfg.parallelism())
		cfg.Topdown = NewTopdownCollector()
		if _, err := SweepOverhead(&cfg, mustSpec(t, "stride-synth")); err != nil {
			t.Fatal(err)
		}
		if cfg.Topdown.Units() == 0 {
			t.Fatal("collector saw no units")
		}
		return cfg.Topdown.CampaignTree().Render()
	}
	serial, parallel := render(1), render(8)
	if serial != parallel {
		t.Fatalf("attribution tree depends on the schedule:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "translation") || !strings.Contains(serial, "compute") {
		t.Errorf("campaign tree incomplete:\n%s", serial)
	}
}

// TestTopdownCollectorGroups: units land in the group named by their
// config, group trees resolve, and unknown groups error helpfully.
func TestTopdownCollectorGroups(t *testing.T) {
	tc := NewTopdownCollector()
	cfg := testConfig()
	cfg.Topdown = tc
	spec := mustSpec(t, "stride-synth")
	if _, err := Run(&cfg, spec, spec.Ladder[0], arch.Page4K); err != nil {
		t.Fatal(err)
	}
	vcfg := testConfig()
	vcfg.Topdown = tc
	vcfg.System.Scheme = "victima"
	vcfg.UnitTag = " @victima"
	if _, err := Run(&vcfg, spec, spec.Ladder[0], arch.Page4K); err != nil {
		t.Fatal(err)
	}
	if got := tc.Groups(); len(got) != 2 || got[0] != "radix" || got[1] != "victima" {
		t.Fatalf("groups %v, want [radix victima]", got)
	}
	if tc.Units() != 2 {
		t.Fatalf("units %d, want 2", tc.Units())
	}
	gt, err := tc.GroupTree("radix")
	if err != nil || gt.Root == nil || gt.Root.Value == 0 {
		t.Fatalf("radix group tree: %v, %+v", err, gt)
	}
	if _, err := tc.GroupTree("nope"); err == nil || !strings.Contains(err.Error(), "radix") {
		t.Fatalf("unknown group error should list known groups, got %v", err)
	}
	// The two groups differ, so Delta between them is well-formed.
	vt, err := tc.GroupTree("victima")
	if err != nil {
		t.Fatal(err)
	}
	d := topdown.Delta(gt, vt)
	if !d.IsDelta {
		t.Error("group delta not marked")
	}
}

// TestTopdownGroupNaming pins the group-name scheme to the schemes
// experiment's column labels.
func TestTopdownGroupNaming(t *testing.T) {
	cases := []struct {
		mutate func(*RunConfig)
		want   string
	}{
		{func(c *RunConfig) {}, "radix"},
		{func(c *RunConfig) { c.System.Scheme = "victima" }, "victima"},
		{func(c *RunConfig) { c.System.NUMA.Nodes = 2 }, "radix-numa2"},
		{func(c *RunConfig) { c.System.Scheme = "mitosis"; c.System.NUMA.Nodes = 2 }, "mitosis"},
		{func(c *RunConfig) { c.System = virtualize(c.System, arch.Page4K) }, "radix+virt"},
	}
	for _, c := range cases {
		cfg := testConfig()
		c.mutate(&cfg)
		if got := topdownGroup(&cfg); got != c.want {
			t.Errorf("topdownGroup = %q, want %q", got, c.want)
		}
	}
}

// TestWCPIExperimentAttribution: the headline experiment's conservation
// laws hold on every unit (zero violations under the campaign registry)
// and its tables carry the attribution columns plus the top-rung tree.
func TestWCPIExperimentAttribution(t *testing.T) {
	cfg := testConfig()
	cfg.Budget = 60_000
	cfg.Refute = NewCampaignChecker()
	res, err := WCPIExperiment(NewSession(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rep := cfg.Refute.Report()
	if rep.Units == 0 {
		t.Fatal("no units audited")
	}
	if rep.TotalViolations != 0 {
		t.Fatalf("conservation violated on the wcpi experiment:\n%s", rep.Render())
	}
	tables := res.Tables()
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want ladder + attribution + tree", len(tables))
	}
	out := res.Render()
	for _, needle := range []string{"top-down attribution per rung", "translation share",
		"attribution tree at the top rung", "compute"} {
		if !strings.Contains(out, needle) {
			t.Errorf("wcpi render lacks %q", needle)
		}
	}
	for _, p := range res.Points {
		tree := topdown.FromCounters(p.C4K)
		if tree.Root.Value == 0 {
			t.Errorf("rung %d: empty attribution counters", p.Param)
		}
	}
}

// TestRunPublishesUnitEvents: with a hub wired, every completed unit
// publishes one event carrying its metrics, the campaign progress at
// publish time, and a non-empty flattened tree.
func TestRunPublishesUnitEvents(t *testing.T) {
	cfg := testConfig()
	cfg.Events = telemetry.NewHub()
	spec := mustSpec(t, "stride-synth")
	if _, err := MeasureOverhead(&cfg, spec, spec.Ladder[0]); err != nil {
		t.Fatal(err)
	}
	events := cfg.Events.History()
	if len(events) != 3 { // one per page-size policy
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d", i, ev.Seq)
		}
		if ev.Unit == "" || ev.Cycles == 0 || ev.Instructions == 0 {
			t.Errorf("event %d incomplete: %+v", i, ev)
		}
		if ev.UnitsTotal != 3 {
			t.Errorf("event %d: units_total %d, want 3", i, ev.UnitsTotal)
		}
		if len(ev.Tree) == 0 || ev.Tree[0].Path != "cycles" {
			t.Errorf("event %d: missing attribution tree", i)
		}
		if ev.CPI <= 0 {
			t.Errorf("event %d: CPI %v", i, ev.CPI)
		}
	}
	// Without a hub the same campaign publishes nothing and runs clean.
	quiet := testConfig()
	if _, err := Run(&quiet, spec, spec.Ladder[0], arch.Page4K); err != nil {
		t.Fatal(err)
	}
}

// TestTreeTableRendering: trees embed as data tables, absolute and
// delta-labelled.
func TestTreeTableRendering(t *testing.T) {
	tc := NewTopdownCollector()
	cfg := testConfig()
	cfg.Topdown = tc
	spec := mustSpec(t, "stride-synth")
	if _, err := Run(&cfg, spec, spec.Ladder[0], arch.Page4K); err != nil {
		t.Fatal(err)
	}
	tree := tc.CampaignTree()
	tbl := TreeTable("attribution", tree)
	text := tbl.String()
	for _, needle := range []string{"node", "value", "share", "translation"} {
		if !strings.Contains(text, needle) {
			t.Errorf("tree table lacks %q:\n%s", needle, text)
		}
	}
	dtbl := TreeTable("delta", topdown.Delta(tree, tree))
	dtext := dtbl.String()
	if !strings.Contains(dtext, "delta") || !strings.Contains(dtext, "rel change") {
		t.Errorf("delta table lacks signed column labels:\n%s", dtext)
	}
}
