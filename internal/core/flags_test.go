package core

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"atscale/internal/arch"
)

// parseFlags binds every flag group on a fresh flag set, parses args
// and applies the flags to a default config.
func parseFlags(t *testing.T, args ...string) (Flags, RunConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := DefaultFlags()
	f.Bind(fs, UnitFlags|PagesFlag|BudgetFlag)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunConfig()
	err := f.Apply(&cfg)
	return f, cfg, err
}

// TestFlagsBindGroups: the flags every front end takes are always
// declared, and each group adds its own.
func TestFlagsBindGroups(t *testing.T) {
	for groups, want := range map[int]int{0: 7, PagesFlag: 8, BudgetFlag: 8, UnitFlags | PagesFlag | BudgetFlag: 11} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := DefaultFlags()
		f.Bind(fs, groups)
		n := 0
		fs.VisitAll(func(*flag.Flag) { n++ })
		if n != want {
			t.Errorf("groups %b declare %d flags, want %d", groups, n, want)
		}
	}
}

// TestFlagsApply maps the shared flags onto a RunConfig: the defaults
// leave DefaultRunConfig as it is, -guest-pages pins cfg.GuestPages and
// replaces -pages, mitosis defaults to two NUMA nodes, and bad values
// are errors.
func TestFlagsApply(t *testing.T) {
	_, cfg, err := parseFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	if def := DefaultRunConfig(); !reflect.DeepEqual(cfg, def) {
		t.Errorf("default flags changed the config:\n%+v\nwant\n%+v", cfg, def)
	}

	f, cfg, err := parseFlags(t, "-virt", "-ept-pages", "2MB", "-guest-pages", "1GB", "-budget", "5", "-seed", "7", "-timeline", "t.json")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.System.Virt.Enabled || cfg.System.Virt.EPTPages != arch.Page2M {
		t.Errorf("-virt -ept-pages 2MB gave Virt %+v", cfg.System.Virt)
	}
	if cfg.GuestPages == nil || *cfg.GuestPages != arch.Page1G || f.Pages != "1GB" {
		t.Errorf("-guest-pages 1GB gave GuestPages %v and -pages %s", cfg.GuestPages, f.Pages)
	}
	if cfg.Budget != 5 || cfg.Seed != 7 || cfg.Trace == nil {
		t.Errorf("budget %d, seed %d, trace %v; want 5, 7 and a tracer", cfg.Budget, cfg.Seed, cfg.Trace)
	}

	for args, nodes := range map[string]int{"": 2, "4": 4} {
		flags := []string{"-scheme", "mitosis"}
		if args != "" {
			flags = append(flags, "-numa-nodes", args)
		}
		if _, cfg, err := parseFlags(t, flags...); err != nil || cfg.System.Scheme != "mitosis" || cfg.System.NUMA.Nodes != nodes {
			t.Errorf("%v gave scheme %q on %d nodes (%v), want %d nodes", flags, cfg.System.Scheme, cfg.System.NUMA.Nodes, err, nodes)
		}
	}

	for _, args := range [][]string{
		{"-guest-pages", "2MB"},
		{"-virt", "-ept-pages", "3MB"},
		{"-virt", "-guest-pages", "3MB"},
		{"-scheme", "nosuch"},
	} {
		if _, _, err := parseFlags(t, args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestFlagsSpec resolves -w and -param, defaulting -param to the
// workload's smallest rung.
func TestFlagsSpec(t *testing.T) {
	f, _, _ := parseFlags(t, "-w", "gups-rand")
	spec, param, err := f.Spec()
	if err != nil || spec.Name() != "gups-rand" || param != spec.Ladder[0] {
		t.Errorf("-w gups-rand resolved to %v param %d (%v)", spec, param, err)
	}
	f, _, _ = parseFlags(t, "-w", "nosuch")
	if _, _, err := f.Spec(); err == nil {
		t.Error("-w nosuch accepted")
	}
}
