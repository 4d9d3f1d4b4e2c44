package machine

import (
	"math/rand"
	"slices"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/perf"
)

// schemeTestConfigs enumerates one config per translation scheme, NUMA
// variants included.
func schemeTestConfigs() map[string]arch.SystemConfig {
	radix := arch.DefaultSystem()

	numa := arch.DefaultSystem()
	numa.NUMA.Nodes = 2
	numa.NUMA.MigrateEvery = 10_000

	victima := arch.DefaultSystem()
	victima.Scheme = "victima"

	mitosis := arch.DefaultSystem()
	mitosis.Scheme = "mitosis"
	mitosis.NUMA.Nodes = 2
	mitosis.NUMA.MigrateEvery = 10_000

	dram := arch.DefaultSystem()
	dram.Scheme = "dramcache"

	return map[string]arch.SystemConfig{
		"radix": radix, "radix-numa2": numa, "victima": victima,
		"mitosis": mitosis, "dramcache": dram,
	}
}

func runSchemeWorkload(m *Machine, seed int64) perf.Counters {
	rng := rand.New(rand.NewSource(seed))
	va := m.MustMalloc(16 * arch.MB)
	words := uint64(16 * arch.MB / 8)
	for i := 0; i < 25000; i++ {
		off := arch.VAddr(rng.Uint64() % words * 8)
		switch rng.Intn(4) {
		case 0:
			m.Store64(va+off, rng.Uint64())
		case 1:
			m.Ops(3)
		case 2:
			m.Branch(uint64(off)&0xffff, rng.Intn(3) == 0)
		default:
			m.Load64(va + off)
		}
	}
	return m.Counters()
}

// TestRenewMatchesFreshPerScheme extends the machine-pool contract to
// every engine: a renewed machine under any scheme, hashed page tables or
// nested paging must be byte-identical to a freshly built one, even after
// previously running a different policy and seed (and, nested, a second
// tenant that was current when the machine was renewed).
func TestRenewMatchesFreshPerScheme(t *testing.T) {
	type renewCase struct {
		cfg                 arch.SystemConfig
		dirtyPolicy, policy arch.PageSize
		tenants             bool
	}
	cases := map[string]renewCase{}
	for name, cfg := range schemeTestConfigs() {
		cases[name] = renewCase{cfg: cfg, dirtyPolicy: arch.Page4K, policy: arch.Page2M}
	}
	hashed := arch.DefaultSystem()
	hashed.PageTable = "hashed"
	cases["hashed"] = renewCase{cfg: hashed, dirtyPolicy: arch.Page4K, policy: arch.Page4K}
	virt := func(ept arch.PageSize) arch.SystemConfig {
		cfg := arch.DefaultSystem()
		cfg.Virt = arch.DefaultVirt()
		cfg.Virt.EPTPages = ept
		return cfg
	}
	cases["virt-ept4k"] = renewCase{cfg: virt(arch.Page4K), dirtyPolicy: arch.Page2M, policy: arch.Page4K}
	cases["virt-ept2m"] = renewCase{cfg: virt(arch.Page2M), dirtyPolicy: arch.Page4K, policy: arch.Page2M, tenants: true}

	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			fresh, err := New(c.cfg, c.policy, 7)
			if err != nil {
				t.Fatal(err)
			}
			want := runSchemeWorkload(fresh, 3)

			pooled, err := New(c.cfg, c.dirtyPolicy, 99)
			if err != nil {
				t.Fatal(err)
			}
			runSchemeWorkload(pooled, 11) // dirty every subsystem
			if c.tenants {
				if _, err := pooled.AddTenant(); err != nil {
					t.Fatal(err)
				}
				if err := pooled.SwitchTenant(1); err != nil {
					t.Fatal(err)
				}
				runSchemeWorkload(pooled, 13)
			}
			if !pooled.Renew(c.policy, 7) {
				t.Fatal("Renew failed")
			}
			if *pooled.Config() != *fresh.Config() || pooled.Tenants() != fresh.Tenants() {
				t.Fatalf("renewed machine reports config %+v with %d tenants, fresh %+v with %d",
					*pooled.Config(), pooled.Tenants(), *fresh.Config(), fresh.Tenants())
			}
			if got := runSchemeWorkload(pooled, 3); got != want {
				t.Errorf("renewed %s machine diverges from fresh build:\nfresh:\n%s\nrenewed:\n%s",
					name, want.Format(), got.Format())
			}
			if got, want := memoryGauges(pooled), memoryGauges(fresh); !slices.Equal(got, want) {
				t.Errorf("renewed %s machine's memory gauges %v, fresh %v", name, got, want)
			}
		})
	}
}

// memoryGauges returns the machine's memory measures beyond the PMU:
// footprint, mapped and page-table bytes, plus the hypervisor's EPT
// violations, host backing and EPT table bytes when nested.
func memoryGauges(m *Machine) []uint64 {
	g := []uint64{m.Footprint(), m.MappedBytes(), m.PageTableBytes()}
	if h := m.Hypervisor(); h != nil {
		g = append(g, h.EPTViolations(), h.HostMappedBytes(), h.EPTTableBytes())
	}
	return g
}

// TestSchemeConfigKeysDiffer pins the pool-keying satellite: configs
// that differ only in scheme identity or NUMA shape compare unequal, so
// the machine pool can never hand a machine built for one scheme to a
// run unit of another.
func TestSchemeConfigKeysDiffer(t *testing.T) {
	cfgs := schemeTestConfigs()
	var names []string
	for name := range cfgs {
		names = append(names, name)
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			if cfgs[a] == cfgs[b] {
				t.Errorf("configs %s and %s compare equal; pool keying cannot distinguish them", a, b)
			}
		}
	}
	// And the machine reports the config it was built with, scheme
	// fields intact.
	cfg := cfgs["mitosis"]
	m, err := New(cfg, arch.Page4K, 1)
	if err != nil {
		t.Fatal(err)
	}
	if *m.Config() != cfg {
		t.Errorf("Config() = %+v, want the construction config", *m.Config())
	}
}

// TestNUMAMigrationSchedule pins the deterministic migration driver:
// a NUMA machine migrates on the configured access cadence, books the
// software event, and two identical runs agree exactly.
func TestNUMAMigrationSchedule(t *testing.T) {
	cfg := arch.DefaultSystem()
	cfg.Scheme = "mitosis"
	cfg.NUMA.Nodes = 2
	cfg.NUMA.MigrateEvery = 5_000

	run := func() perf.Counters {
		m, err := New(cfg, arch.Page4K, 42)
		if err != nil {
			t.Fatal(err)
		}
		return runSchemeWorkload(m, 5)
	}
	a := run()
	if a.Get(perf.NUMAMigrations) == 0 {
		t.Fatal("no migrations on a 5k-access cadence")
	}
	if a.Get(perf.ReplicaLocalWalks)+a.Get(perf.ReplicaRemoteWalks) == 0 {
		t.Fatal("mitosis walks were never classified")
	}
	if b := run(); a != b {
		t.Errorf("identical NUMA runs diverge:\n%s\nvs\n%s", a.Format(), b.Format())
	}
}

// TestUMAMachineNeverMigrates: without NUMA nodes the migration driver
// must stay disarmed whatever the cadence says.
func TestUMAMachineNeverMigrates(t *testing.T) {
	cfg := arch.DefaultSystem()
	cfg.NUMA.MigrateEvery = 1_000
	m, err := New(cfg, arch.Page4K, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := runSchemeWorkload(m, 2)
	if c.Get(perf.NUMAMigrations) != 0 {
		t.Errorf("UMA machine migrated %d times", c.Get(perf.NUMAMigrations))
	}
}

// TestReconfigureThroughEveryVariant: one machine, reconfigured through
// every benchmark machine variant in turn and running a unit on each,
// ends each unit in the state a machine built fresh for the variant
// reaches: the same config, counters, physical memory, data and memory
// gauges. It starts as a dirtied nested machine, so the walk crosses
// nested to native, two NUMA nodes to one and hashed to nested.
func TestReconfigureThroughEveryVariant(t *testing.T) {
	schemes := schemeTestConfigs()
	hashed := arch.DefaultSystem()
	hashed.PageTable = "hashed"
	virt := func(ept arch.PageSize) arch.SystemConfig {
		cfg := arch.DefaultSystem()
		cfg.Virt = arch.DefaultVirt()
		cfg.Virt.EPTPages = ept
		return cfg
	}
	variants := []struct {
		name   string
		cfg    arch.SystemConfig
		policy arch.PageSize
	}{
		{"radix", schemes["radix"], arch.Page2M},
		{"victima", schemes["victima"], arch.Page4K},
		{"mitosis", schemes["mitosis"], arch.Page4K},
		{"dramcache", schemes["dramcache"], arch.Page4K},
		{"hashed", hashed, arch.Page4K},
		{"virt-ept4k", virt(arch.Page4K), arch.Page4K},
		{"virt-ept2m", virt(arch.Page2M), arch.Page2M},
	}
	m, err := New(virt(arch.Page2M), arch.Page4K, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	runSchemeWorkload(m, 11)
	for _, v := range variants {
		fresh, err := New(v.cfg, v.policy, 7)
		if err != nil {
			t.Fatal(err)
		}
		want := runSchemeWorkload(fresh, 3)
		if err := m.Reconfigure(v.cfg, v.policy, 7); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if *m.Config() != *fresh.Config() {
			t.Errorf("%s: reconfigured machine reports config %+v, fresh %+v", v.name, *m.Config(), *fresh.Config())
		}
		if got := runSchemeWorkload(m, 3); got != want {
			t.Errorf("%s: reconfigured machine diverges from a fresh build:\nfresh:\n%s\nreconfigured:\n%s",
				v.name, want.Format(), got.Format())
		}
		if !m.be.phys.Equal(fresh.be.phys) {
			t.Errorf("%s: reconfigured machine's physical memory differs from a fresh build's", v.name)
		}
		if !m.words.Equal(fresh.words) {
			t.Errorf("%s: reconfigured machine's data differs from a fresh build's", v.name)
		}
		if got, want := memoryGauges(m), memoryGauges(fresh); !slices.Equal(got, want) {
			t.Errorf("%s: reconfigured machine's memory gauges %v, fresh %v", v.name, got, want)
		}
		fresh.Release()
	}
}
