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

// TestRunReleasesUnpooledMachines: units on machines the pool cannot keep
// (hashed page tables, nested paging) unmap their host memory when they
// finish, so the mapped gauge returns to where it started.
func TestRunReleasesUnpooledMachines(t *testing.T) {
	start := settledHostMapped()
	for _, tc := range []struct {
		name   string
		mutate func(*RunConfig)
	}{
		{"hashed", func(c *RunConfig) { c.System.PageTable = "hashed" }},
		{"virt-ept4k", func(c *RunConfig) { c.System = virtualize(c.System, arch.Page4K) }},
	} {
		cfg := testConfig()
		cfg.Budget = 60_000
		cfg.machines = newMachinePool(1)
		tc.mutate(&cfg)
		spec := mustSpec(t, "gups-rand")
		if _, err := Run(&cfg, spec, spec.Ladder[0], arch.Page4K); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := len(pooled(cfg.machines)); n != 0 {
			t.Errorf("%s: %d unpoolable machines pooled", tc.name, n)
		}
		if got := mem.HostMappedBytes(); got != start {
			t.Errorf("%s: %d host bytes mapped after the unit, %d before", tc.name, got, start)
		}
	}
}
