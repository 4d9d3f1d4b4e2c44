package machine

import (
	"math/rand"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/perf"
)

// TestSteadyStateZeroAllocs pins the hot-path refactor's allocation
// contract: once a machine's working set is faulted in, the per-access
// path — translate, walk, cache access, speculation — performs zero heap
// allocations, natively and under nested paging. Any regression here
// shows up as GC pressure multiplied by every campaign the ROADMAP
// plans.
func TestSteadyStateZeroAllocs(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *Machine
	}{
		{"native-4k", func(t *testing.T) *Machine {
			t.Helper()
			m, err := New(arch.DefaultSystem(), arch.Page4K, 1)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"native-2m", func(t *testing.T) *Machine {
			t.Helper()
			m, err := New(arch.DefaultSystem(), arch.Page2M, 1)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"virt-ept2m", func(t *testing.T) *Machine {
			t.Helper()
			return newVirtM(t, arch.Page4K, arch.Page2M)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build(t)
			const n = 64 * arch.MB
			va := m.MustMalloc(n)
			for off := uint64(0); off < n; off += 4096 {
				m.Poke64(va+arch.VAddr(off), off)
			}
			rng := rand.New(rand.NewSource(2))
			words := uint64(n / 8)
			step := func() {
				off := arch.VAddr(rng.Uint64() % words * 8)
				m.Load64(va + off)
				m.Store64(va+off, 1)
				m.Ops(2)
				m.Branch(uint64(off)&0x3ff, rng.Intn(2) == 0)
			}
			// Warm the translation path (TLB fills, PSC fills, demand
			// walks over already-mapped pages) before measuring.
			for i := 0; i < 2000; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(200, step); avg != 0 {
				t.Errorf("steady-state access path allocates %.2f allocs/op, want 0", avg)
			}
		})
	}
}

// TestRenewMatchesFresh is the machine-pool correctness contract in
// miniature: a renewed machine must produce exactly the counter file a
// freshly built machine with the same config, policy, and seed produces,
// even when the pooled machine previously ran a different policy with a
// different seed.
func TestRenewMatchesFresh(t *testing.T) {
	run := func(m *Machine, seed int64) perf.Counters {
		rng := rand.New(rand.NewSource(seed))
		va := m.MustMalloc(16 * arch.MB)
		words := uint64(16 * arch.MB / 8)
		for i := 0; i < 30000; i++ {
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
	cfg := arch.DefaultSystem()
	fresh, err := New(cfg, arch.Page2M, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := run(fresh, 3)

	pooled, err := New(cfg, arch.Page4K, 99)
	if err != nil {
		t.Fatal(err)
	}
	run(pooled, 11) // dirty every subsystem under the other policy
	if !pooled.Renew(arch.Page2M, 7) {
		t.Fatal("Renew failed on a poolable machine")
	}
	if got := run(pooled, 3); got != want {
		t.Errorf("renewed machine diverges from fresh build:\nfresh:\n%s\nrenewed:\n%s",
			want.Format(), got.Format())
	}
}

// TestRenewRefusesUnsupportedPolicy: Renew refuses exactly what New
// refuses — a hashed page table cannot back a 2 MB heap.
func TestRenewRefusesUnsupportedPolicy(t *testing.T) {
	cfg := arch.DefaultSystem()
	cfg.PageTable = "hashed"
	if _, err := New(cfg, arch.Page2M, 1); err == nil {
		t.Fatal("New accepted a 2MB heap over a hashed page table")
	}
	m, err := New(cfg, arch.Page4K, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Renew(arch.Page2M, 1) {
		t.Error("Renew accepted a 2MB heap over a hashed page table")
	}
}

// TestSwitchTenantZeroAllocs pins the tenant switch's allocation
// contract: the multi-tenant sweeps switch tenants inside the measured
// region, and the core's fault handler is built once per machine, not
// per switch.
func TestSwitchTenantZeroAllocs(t *testing.T) {
	m := newVirtM(t, arch.Page4K, arch.Page4K)
	second, err := m.AddTenant()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m.MustMalloc(arch.MB)
		if err := m.SwitchTenant(second); err != nil {
			t.Fatal(err)
		}
		m.MustMalloc(arch.MB)
		if err := m.SwitchTenant(0); err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		if err := m.SwitchTenant(second); err != nil {
			t.Fatal(err)
		}
		if err := m.SwitchTenant(0); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Errorf("tenant switch allocates %.2f allocs/op, want 0", avg)
	}
}
