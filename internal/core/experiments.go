package core

import (
	"fmt"
	"sort"
)

// Renderer is what every experiment result implements.
type Renderer interface {
	Render() string
	// Tables exposes the result's data tables (CSV export, plotting).
	Tables() []*Table
}

// RenderTables joins tables into the standard text rendering.
func RenderTables(ts []*Table, footer string) string {
	var b []byte
	for i, t := range ts {
		if i > 0 {
			b = append(b, '\n')
		}
		b = append(b, t.String()...)
	}
	if footer != "" {
		b = append(b, footer...)
	}
	return string(b)
}

// CSV renders a result's tables as CSV blocks separated by blank lines.
func CSV(r Renderer) string {
	var b []byte
	for i, t := range r.Tables() {
		if i > 0 {
			b = append(b, '\n')
		}
		b = append(b, t.CSV()...)
	}
	return string(b)
}

// Experiment is a named, runnable reproduction of one paper table/figure.
type Experiment struct {
	// ID is the CLI name ("fig1", "table5", ...).
	ID string
	// Caption summarizes what the paper's artifact shows.
	Caption string
	// Run executes the experiment within a session.
	Run func(*Session) (Renderer, error)
}

// wrap adapts a typed experiment function to the registry signature.
func wrap[T Renderer](fn func(*Session) (T, error)) func(*Session) (Renderer, error) {
	return func(s *Session) (Renderer, error) {
		r, err := fn(s)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// Experiments returns the full reproduction index: one entry per table
// and figure of the paper's evaluation.
func Experiments() []Experiment {
	exps := []Experiment{
		{"tables", "Tables I-III: workload, generator and system inventories", wrap(Tables)},
		{"fig1", "Relative AT overhead vs memory footprint, all workloads", wrap(Fig1)},
		{"fig2", "cc-urand overhead vs log10 footprint with linear fit", wrap(Fig2)},
		{"fig3", "Exception workloads with weak/nonlinear scaling", wrap(Fig3)},
		{"table4", "Per-workload regression overhead = b0 + b1*log10(M)", wrap(Table4)},
		{"table5", "Correlation of five AT-pressure metrics with overhead", wrap(Table5)},
		{"fig4", "Overhead vs WCPI scatter across workloads", wrap(Fig4)},
		{"fig5", "Overhead vs WCPI within bc-urand", wrap(Fig5)},
		{"fig6", "Equation 1 component breakdown for four workloads", wrap(Fig6)},
		{"fig7", "Walk outcome distribution vs footprint", wrap(Fig7)},
		{"table6", "Walk outcome formulae evaluated on live counters", wrap(Table6)},
		{"fig8", "PTE access location distribution for pr-kron", wrap(Fig8)},
		{"fig9", "Wrong-path walk fraction vs machine clears (bc-kron)", wrap(Fig9)},
		{"fig10", "2MB superpage study for bc-urand", wrap(Fig10)},
		{"promo", "Extension: WCPI-guided hugepage promotion (paper §VI proposal)", wrap(PromoExperiment)},
		{"hashedpt", "Extension: hashed vs radix page tables (paper §VI proposal)", wrap(HashedPTExperiment)},
		{"xsweep", "Extension: synthetic streams swept to tens-of-GB virtual footprints", wrap(XSweep)},
		{"stability", "Extension: metric dispersion across simulation seeds", wrap(StabilityExperiment)},
		{"virt", "Extension: nested paging — native-vs-nested sweep, page-size matrix, multi-tenant EPT sharing", wrap(VirtExperiment)},
		{"wcpi", "Headline WCPI ladder for bc-urand (shares fig5's sweep; pairs with -timeline)", wrap(WCPIExperiment)},
		{"refute", "Adversarial counter-identity sweep: perturb page sizes, virt, walker, promotion, sampling, tenants and hunt invariant breakage", wrap(RefuteExperiment)},
		{"schemes", "Extension: translation-scheme matrix — radix vs Victima vs Mitosis vs die-stacked DRAM cache, identity-audited", wrap(SchemesExperiment)},
	}
	for i := range exps {
		id, run := exps[i].ID, exps[i].Run
		exps[i].Run = func(s *Session) (Renderer, error) { return run(s.forExperiment(id)) }
	}
	return exps
}

// ExperimentByID finds an experiment by CLI name.
func ExperimentByID(id string) (Experiment, error) {
	var ids []string
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("core: unknown experiment %q (have %v)", id, ids)
}
