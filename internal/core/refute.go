package core

import (
	"fmt"

	"atscale/internal/arch"
	"atscale/internal/refute"
	"atscale/internal/workloads"
)

// This file drives the adversarial refutation experiment: instead of
// measuring the paper's artifacts, it perturbs the configuration and
// workload dimensions that most plausibly break a counter identity —
// page sizes (every variant sweeps all three policies), nested paging
// with both EPT leaf sizes, the hashed page-table walker, WCPI-guided
// promotion, five-level paging, PEBS sampling into a deliberately tiny
// ring (forcing overflow, so the drop-accounting identities carry
// weight), and multi-tenant EPT sharing — and checks the full identity
// registry on every unit. The verdict is CounterPoint's question asked
// of our own simulator: which identities hold, which break, and under
// what conditions.

// refuteSweepWorkload climbs the same synthetic ladder as the virt
// experiment: footprint-controllable and cheap, so nine config variants
// stay affordable at every preset.
const refuteSweepWorkload = "uniform-synth"

// refuteSamplePeriod / refuteSampleRing configure the sampling variant:
// a short period into a tiny ring guarantees overflow, so the ring- and
// weight-accounting identities are exercised under drops, not just in
// the easy all-captured regime.
const (
	refuteSamplePeriod = 257
	refuteSampleRing   = 64
)

// refuteVariant is one adversarial configuration.
type refuteVariant struct {
	name   string
	mutate func(*RunConfig)
	// at4K, when set, replaces the three-policy ladder sweep: the
	// variant runs the returned spec at each returned param under 4KB
	// pages only (the hashed walker rejects superpage policies, and the
	// tenant kernel is a 4KB study). ladder is the refute sweep's spec.
	at4K func(cfg *RunConfig, ladder *workloads.Spec) (*workloads.Spec, []uint64)
}

// refuteVariants enumerates the perturbation matrix.
func refuteVariants() []refuteVariant {
	tenants := func(n uint64) func(*RunConfig, *workloads.Spec) (*workloads.Spec, []uint64) {
		return func(c *RunConfig, _ *workloads.Spec) (*workloads.Spec, []uint64) {
			return tenantSpec(c.Seed), []uint64{n}
		}
	}
	return []refuteVariant{
		{name: "base"},
		{name: "hashed-pt", mutate: func(c *RunConfig) { c.System.PageTable = "hashed" },
			at4K: func(c *RunConfig, ladder *workloads.Spec) (*workloads.Spec, []uint64) {
				return ladder, ladder.Sizes(c.Preset)
			}},
		{name: "promo", mutate: func(c *RunConfig) { c.EnablePromotion = true }},
		{name: "lvl5", mutate: func(c *RunConfig) { c.System.PagingLevels = 5 }},
		{name: "virt-ept4k", mutate: func(c *RunConfig) { c.System = virtualize(c.System, arch.Page4K) }},
		{name: "virt-ept2m", mutate: func(c *RunConfig) { c.System = virtualize(c.System, arch.Page2M) }},
		{name: "sampling", mutate: func(c *RunConfig) {
			c.SamplePeriod = refuteSamplePeriod
			c.SampleBuffer = refuteSampleRing
		}},
		{name: "virt-tenants2", mutate: virtualizeTenants, at4K: tenants(2)},
		{name: "virt-tenants4", mutate: virtualizeTenants, at4K: tenants(4)},
	}
}

// RefuteVariantRow is one adversarial variant's verdict.
type RefuteVariantRow struct {
	Variant     string
	Units       int
	Checked     int
	Skipped     int
	Violations  int
	MaxResidual float64
	WorstID     string
}

// RefuteResult is the experiment's dataset: the per-variant verdict
// rows plus the merged per-identity report.
type RefuteResult struct {
	Rows   []RefuteVariantRow
	Merged *refute.Report
}

// RefuteExperiment runs the perturbation matrix. Each variant gets its
// own checker (so breakage attributes to a variant) and a unit tag (so
// unit names stay campaign-unique across variants); the per-variant
// reports then merge into one identity-level verdict. When the session
// itself carries a checker (atscale -refute), every variant's outcomes
// are absorbed into it too, so the CLI's exit status covers the
// adversarial units as well.
func RefuteExperiment(s *Session) (*RefuteResult, error) {
	ladder, err := workloads.ByName(refuteSweepWorkload)
	if err != nil {
		return nil, err
	}
	variants := refuteVariants()
	res := &RefuteResult{}
	reports := make([]*refute.Report, len(variants))
	sessionChecker := s.Config().Refute

	for vi := range variants {
		v := &variants[vi]
		// The campaign registry (base + topdown conservation laws), not
		// the bare default: the session checker these outcomes absorb
		// into runs the same registry, and Absorb panics on a length
		// mismatch by design.
		checker := NewCampaignChecker()
		cfg := s.Config()
		cfg.Refute = checker
		cfg.UnitTag = " @" + v.name
		if v.mutate != nil {
			v.mutate(&cfg)
		}
		if v.at4K != nil {
			spec, params := v.at4K(&cfg, ladder)
			err = forEachUnit(&cfg, len(params), func(i int) error {
				_, err := Run(&cfg, spec, params[i], arch.Page4K)
				return err
			})
		} else {
			_, err = SweepOverhead(&cfg, ladder)
		}
		if err != nil {
			return nil, fmt.Errorf("refute variant %s: %w", v.name, err)
		}
		rep := checker.Report()
		reports[vi] = rep
		row := RefuteVariantRow{Variant: v.name, Units: rep.Units}
		for i := range rep.Identities {
			ir := &rep.Identities[i]
			row.Checked += ir.Checked
			row.Skipped += ir.Skipped
			row.Violations += ir.Violations
			if ir.MaxResidual > row.MaxResidual {
				row.MaxResidual, row.WorstID = ir.MaxResidual, ir.Name
			}
		}
		res.Rows = append(res.Rows, row)
		if sessionChecker != nil {
			sessionChecker.Absorb(checker)
		}
	}
	res.Merged = refute.MergeReports(reports...)
	return res, nil
}

// Tables renders the variant verdicts and the merged identity table.
func (r *RefuteResult) Tables() []*Table {
	t1 := NewTable("Refute: adversarial config sweep ("+refuteSweepWorkload+" ladder x 4KB/2MB/1GB per variant)",
		"variant", "units", "checked", "skipped", "violated", "max residual", "worst identity")
	for _, row := range r.Rows {
		worst := row.WorstID
		if worst == "" {
			worst = "-"
		}
		t1.Row(row.Variant, fmt.Sprint(row.Units), fmt.Sprint(row.Checked),
			fmt.Sprint(row.Skipped), fmt.Sprint(row.Violations),
			fmt.Sprintf("%.3g", row.MaxResidual), worst)
	}
	t2 := NewTable("Refute: identity verdicts over all variants",
		"identity", "scope", "verdict", "checked", "skipped", "violated", "max residual")
	if r.Merged != nil {
		for i := range r.Merged.Identities {
			ir := &r.Merged.Identities[i]
			verdict := "HOLDS"
			switch {
			case ir.Checked == 0:
				verdict = "skip"
			case !ir.Holds():
				verdict = "BREAKS"
			}
			t2.Row(ir.Name, ir.Scope, verdict, fmt.Sprint(ir.Checked),
				fmt.Sprint(ir.Skipped), fmt.Sprint(ir.Violations),
				fmt.Sprintf("%.3g", ir.MaxResidual))
		}
	}
	return []*Table{t1, t2}
}

// Render emits both tables plus any violation detail.
func (r *RefuteResult) Render() string {
	footer := ""
	if r.Merged != nil && r.Merged.TotalViolations > 0 {
		footer = "\n" + r.Merged.Render()
	}
	return RenderTables(r.Tables(), footer)
}
