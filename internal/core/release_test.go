package core

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"atscale/internal/arch"
	"atscale/internal/machine"
	"atscale/internal/mem"
	"atscale/internal/perf"
)

// pooled returns the machines p holds.
func pooled(p *machinePool) []*machine.Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.free)
}

// TestRunPoolsMachineAfterError: a unit that fails after acquiring its
// machine still hands the machine back, and the next unit of the same
// config reuses it.
func TestRunPoolsMachineAfterError(t *testing.T) {
	cfg := testConfig()
	cfg.machines = newMachinePool(1)
	spec := mustSpec(t, "gups-rand")
	bad := cfg
	bad.SamplePeriod = 4096
	bad.SampleEvents = []perf.Event{perf.NumEvents}
	if _, err := Run(&bad, spec, spec.Ladder[0], arch.Page4K); err == nil {
		t.Fatal("sampling an invalid event did not fail the unit")
	}
	before := pooled(cfg.machines)
	if len(before) != 1 {
		t.Fatalf("failed unit left %d machines in the pool, want 1", len(before))
	}
	if _, err := Run(&cfg, spec, spec.Ladder[0], arch.Page4K); err != nil {
		t.Fatal(err)
	}
	if after := pooled(cfg.machines); len(after) != 1 || after[0] != before[0] {
		t.Error("the unit after a failed one did not reuse the pooled machine")
	}
}

// TestPoolKeepsMachineForRejectedUnit: a unit whose config the build
// rejects fails without taking the parked machine, so the next valid
// unit on a one-machine pool still reuses it.
func TestPoolKeepsMachineForRejectedUnit(t *testing.T) {
	machines := newMachinePool(1)
	spec := mustSpec(t, "gups-rand")
	cfg := poolUnit(machines, nil)
	if _, err := Run(&cfg, spec, spec.Ladder[0], arch.Page4K); err != nil {
		t.Fatal(err)
	}
	parked := pooled(machines)
	// Mitosis on one NUMA node, and hashed tables under 2 MB pages.
	bad := poolUnit(machines, withScheme("mitosis"))
	if _, err := Run(&bad, spec, spec.Ladder[0], arch.Page4K); err == nil {
		t.Fatal("a mitosis unit on one NUMA node ran")
	}
	bad = poolUnit(machines, func(c *RunConfig) { c.System.PageTable = "hashed" })
	if _, err := Run(&bad, spec, spec.Ladder[0], arch.Page2M); err == nil {
		t.Fatal("a hashed unit under 2 MB pages ran")
	}
	if p := pooled(machines); len(p) != 1 || p[0] != parked[0] {
		t.Fatal("a rejected unit took the parked machine")
	}
	if _, err := Run(&cfg, spec, spec.Ladder[0], arch.Page4K); err != nil {
		t.Fatal(err)
	}
	if p := pooled(machines); len(p) != 1 || p[0] != parked[0] {
		t.Error("the valid unit after a rejected one did not reuse the parked machine")
	}
}

// settledHostMapped returns mem.HostMappedBytes once the cleanups of
// memories earlier tests left unreachable have run.
func settledHostMapped() int64 {
	runtime.GC()
	prev := mem.HostMappedBytes()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := mem.HostMappedBytes()
		if cur == prev {
			break
		}
		prev = cur
	}
	return prev
}

// take removes and returns the oldest machine p holds.
func take(p *machinePool) *machine.Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.free[0]
	p.free = slices.Delete(p.free, 0, 1)
	return m
}

// poolUnit returns a gups-rand unit's config on pool, with mutate
// applied.
func poolUnit(pool *machinePool, mutate func(*RunConfig)) RunConfig {
	cfg := testConfig()
	cfg.Budget = 60_000
	cfg.machines = pool
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// withScheme returns a mutation selecting a translation scheme.
func withScheme(name string) func(*RunConfig) {
	return func(c *RunConfig) { c.System.Scheme = name }
}

// TestPoolRenewsLatestConfig: the pool hands a unit the newest parked
// machine built for exactly its config, renewed, and reconfigures the
// oldest parked machine for a config no parked machine was built for.
func TestPoolRenewsLatestConfig(t *testing.T) {
	machines := newMachinePool(2)
	spec := mustSpec(t, "gups-rand")
	run := func(mutate func(*RunConfig)) *machine.Machine {
		t.Helper()
		cfg := poolUnit(machines, mutate)
		if _, err := Run(&cfg, spec, spec.Ladder[0], arch.Page4K); err != nil {
			t.Fatal(err)
		}
		p := pooled(machines)
		return p[len(p)-1]
	}
	// Park a radix machine and, newer, a victima one.
	victima := run(withScheme("victima"))
	take(machines)
	radix := run(withScheme("radix"))
	machines.release(victima)
	if got := run(withScheme("victima")); got != victima {
		t.Error("the victima unit did not renew the parked victima machine")
	}
	if got := run(withScheme("radix")); got != radix {
		t.Error("the radix unit did not renew the parked radix machine")
	}
	// victima is now the oldest parked machine.
	if got := run(withScheme("dramcache")); got != victima || got.Config().Scheme != "dramcache" {
		t.Error("the dramcache unit did not reconfigure the oldest parked machine")
	}
	if p := pooled(machines); len(p) != 2 || p[0] != radix {
		t.Error("reconfiguring the oldest machine dropped another from the pool")
	}
}

// TestPoolMachineServesEveryConfig: on a one-machine pool, a hashed unit
// and then a nested unit run on one machine, reconfigured between them,
// and releasing it brings the mapped gauge back to where it started. On
// the overflow path — a machine released into a full pool — the machine
// the pool evicts unmaps its host memory too.
func TestPoolMachineServesEveryConfig(t *testing.T) {
	start := settledHostMapped()
	machines := newMachinePool(1)
	spec := mustSpec(t, "gups-rand")
	var served *machine.Machine
	for _, tc := range []struct {
		name   string
		mutate func(*RunConfig)
	}{
		{"hashed", func(c *RunConfig) { c.System.PageTable = "hashed" }},
		{"virt-ept4k", func(c *RunConfig) { c.System = virtualize(c.System, arch.Page4K) }},
	} {
		cfg := poolUnit(machines, tc.mutate)
		if _, err := Run(&cfg, spec, spec.Ladder[0], arch.Page4K); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p := pooled(machines)
		if len(p) != 1 || served != nil && p[0] != served {
			t.Fatalf("%s: the unit did not run on the one pooled machine", tc.name)
		}
		served = p[0]
	}
	if !served.Virtualized() {
		t.Fatal("the pooled machine was not reconfigured for the nested unit")
	}
	parked := mem.HostMappedBytes()

	// A second machine in flight parks into the full pool and evicts the
	// first, which must unmap what it mapped.
	second, err := machine.New(*served.Config(), arch.Page4K, 1)
	if err != nil {
		t.Fatal(err)
	}
	second.Poke64(second.MustMalloc(arch.MB), 1)
	both := mem.HostMappedBytes()
	machines.release(second)
	if p := pooled(machines); len(p) != 1 || p[0] != second {
		t.Fatal("the pool did not park the newest machine in place of the oldest")
	}
	if got, want := mem.HostMappedBytes(), start+both-parked; got != want {
		t.Errorf("%d host bytes mapped after the pool evicted a machine, want %d", got, want)
	}
	second.Release()
	if got := mem.HostMappedBytes(); got != start {
		t.Errorf("%d host bytes mapped after releasing the parked machine, %d before", got, start)
	}
}

// TestPoolReconfiguresConcurrently: two workers share a one-machine pool
// over units of five configs, so machines are renewed, reconfigured,
// built fresh and evicted while another unit runs. Every unit's counters
// match the same unit run on a fresh machine.
func TestPoolReconfiguresConcurrently(t *testing.T) {
	spec := mustSpec(t, "gups-rand")
	configs := []func(*RunConfig){
		withScheme("radix"),
		withScheme("victima"),
		func(c *RunConfig) { c.System.Scheme = "mitosis"; c.System.NUMA.Nodes = 2 },
		func(c *RunConfig) { c.System.PageTable = "hashed" },
		func(c *RunConfig) { c.System = virtualize(c.System, arch.Page2M) },
	}
	n := 2 * len(configs)
	want := make([]perf.Counters, n)
	for i := range want {
		cfg := poolUnit(nil, configs[i%len(configs)])
		r, err := Run(&cfg, spec, spec.Ladder[0], arch.Page4K)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Counters
	}
	machines := newMachinePool(1)
	got := make([]perf.Counters, n)
	sched := testConfig()
	sched.Parallelism = 2
	err := forEachUnit(&sched, n, func(i int) error {
		cfg := poolUnit(machines, configs[i%len(configs)])
		r, err := Run(&cfg, spec, spec.Ladder[0], arch.Page4K)
		got[i] = r.Counters
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("unit %d on the shared pool diverges from a fresh machine:\nfresh:\n%s\npooled:\n%s",
				i, want[i].Format(), got[i].Format())
		}
	}
	for _, m := range pooled(machines) {
		m.Release()
	}
}
