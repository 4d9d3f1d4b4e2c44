package machine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"atscale/internal/arch"
	"atscale/internal/perf"
)

// pipelineMix drives m through a long mix of every call kind — streamed
// accesses, quiet pokes and peeks, and barriers (Malloc, Counters,
// tenant switches on virtualized machines) — and returns the loaded
// words, the counters seen at each barrier, the sampler's records and
// the interval rows.
func pipelineMix(t *testing.T, m *Machine, overlap bool) ([]uint64, []perf.Counters, []perf.Sample, []perf.IntervalRow) {
	t.Helper()
	smp := m.Sampler()
	if err := smp.Arm(perf.DTLBLoadWalkDuration, 512); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartIntervals(7_000); err != nil {
		t.Fatal(err)
	}
	tenants := 1
	if m.Virtualized() {
		for ; tenants < 3; tenants++ {
			if _, err := m.AddTenant(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const heap = 16 * arch.MB
	bases := make([]arch.VAddr, tenants)
	for i := range bases {
		if m.Virtualized() {
			if err := m.SwitchTenant(i); err != nil {
				t.Fatal(err)
			}
		}
		bases[i] = m.MustMalloc(heap)
		m.Poke64(bases[i], uint64(i))
	}
	var loads []uint64
	var snaps []perf.Counters
	body := func() {
		rng := rand.New(rand.NewSource(11))
		tenant := len(bases) - 1
		for i := 0; i < 60_000; i++ {
			va := bases[tenant] + arch.VAddr(rng.Uint64()%(heap/8)*8)
			switch r := rng.Intn(100); {
			case r < 45:
				v := m.Load64(va)
				loads = append(loads, v)
				m.Branch(uint64(r), v&1 == 1)
			case r < 80:
				m.Store64(va, rng.Uint64())
				m.Ops(uint64(r % 7))
			case r < 90:
				m.Poke64(va, uint64(i))
			case r < 97:
				loads = append(loads, m.Peek64(va))
			case r < 98:
				va, err := m.Malloc(uint64(rng.Intn(300_000)) + 8)
				if err != nil {
					t.Fatal(err)
				}
				m.Store64(va, 7)
			case r < 99:
				snaps = append(snaps, m.Counters())
			default:
				if m.Virtualized() {
					tenant = rng.Intn(len(bases))
					if err := m.SwitchTenant(tenant); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if overlap {
		m.Overlap(context.Background(), body)
	} else {
		body()
	}
	snaps = append(snaps, m.Counters())
	return loads, snaps, smp.Drain(), m.StopIntervals()
}

// TestPipelineMatchesInline: a mix of every call kind gives the same
// data, counters, samples and interval rows whether the back end runs
// on its own goroutine or inline, natively, with promotion, and under
// nested paging with tenant switches.
func TestPipelineMatchesInline(t *testing.T) {
	virt := arch.DefaultSystem()
	virt.Virt = arch.DefaultVirt()
	cases := []struct {
		name  string
		cfg   arch.SystemConfig
		promo bool
	}{
		{"native", arch.DefaultSystem(), false},
		{"promo", arch.DefaultSystem(), true},
		{"virt-tenants", virt, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(overlap bool) ([]uint64, []perf.Counters, []perf.Sample, []perf.IntervalRow) {
				m, err := New(tc.cfg, arch.Page4K, 5)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Release()
				if tc.promo {
					m.EnablePromotion(PromotionConfig{Epoch: 4096, WCPIThreshold: 0.001, MaxPerEpoch: 4, CostCycles: 1000})
				}
				return pipelineMix(t, m, overlap)
			}
			l1, c1, s1, r1 := run(true)
			l2, c2, s2, r2 := run(false)
			if !reflect.DeepEqual(l1, l2) {
				t.Error("loaded words differ")
			}
			if !reflect.DeepEqual(c1, c2) {
				t.Error("counters differ")
			}
			if len(s2) == 0 || !reflect.DeepEqual(s1, s2) {
				t.Errorf("samples differ (%d vs %d)", len(s1), len(s2))
			}
			if len(r2) == 0 || !reflect.DeepEqual(r1, r2) {
				t.Errorf("interval rows differ (%d vs %d)", len(r1), len(r2))
			}
			if tc.promo && c2[len(c2)-1].Get(perf.THPPromotions) == 0 {
				t.Error("no block was promoted: the promotion case checks nothing")
			}
		})
	}
}

// TestPipelinePanicSurfaces: a wild access inside Overlap, after more
// events than the queue holds, panics on the caller with the value an
// inline run panics with, and no goroutine is left running. A back-end
// panic arrives as a *backPanic carrying the back end's stack; a write
// beyond the data store's extent fails on the front end first, inline
// or not.
func TestPipelinePanicSurfaces(t *testing.T) {
	cases := []struct {
		name string
		// wild makes the bad access; base is a 1 MB heap's.
		wild func(m *Machine, base arch.VAddr)
		// back is whether the back end raises the panic.
		back bool
	}{
		{"load-no-region", func(m *Machine, base arch.VAddr) { m.Load64(base + 64*arch.MB) }, true},
		{"store-beyond-extent", func(m *Machine, base arch.VAddr) { m.Store64(base+64*arch.MB, 1) }, false},
		{"store-past-heap-end", func(m *Machine, base arch.VAddr) { m.Store64(base+arch.MB+8, 1) }, true},
		{"poke-beyond-extent", func(m *Machine, base arch.VAddr) { m.Poke64(base+64*arch.MB, 1) }, false},
		{"poke-past-heap-end", func(m *Machine, base arch.VAddr) { m.Poke64(base+arch.MB+8, 1) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := func(m *Machine) {
				va := m.MustMalloc(arch.MB)
				for i := 0; i < 3*batchesInFlight*batchEvents; i++ {
					m.Load64(va + arch.VAddr(i%(arch.MB/8)*8))
				}
				tc.wild(m, va)
				for i := 0; i < 3*batchesInFlight*batchEvents; i++ {
					m.Ops(1)
				}
				m.Counters()
			}
			catch := func(f func()) (r any) {
				defer func() { r = recover() }()
				f()
				return nil
			}
			before := runtime.NumGoroutine()
			inline := catch(func() { body(newM(t, arch.Page4K)) })
			overlapped := catch(func() {
				m := newM(t, arch.Page4K)
				m.Overlap(context.Background(), func() { body(m) })
			})
			if inline == nil || overlapped == nil {
				t.Fatalf("no panic: inline %v, overlapped %v", inline, overlapped)
			}
			if _, ok := inline.(*backPanic); ok {
				t.Fatalf("inline panic is a *backPanic: %v", inline)
			}
			bp, ok := overlapped.(*backPanic)
			if ok != tc.back {
				t.Fatalf("overlapped panic %T, want a back-end panic: %v", overlapped, tc.back)
			}
			if ok {
				if !strings.Contains(string(bp.stack), "(*backEnd).apply") {
					t.Errorf("back-end stack does not show the failing apply:\n%s", bp.stack)
				}
				if msg := bp.Error(); !strings.HasPrefix(msg, fmt.Sprint(inline)) || !strings.Contains(msg, string(bp.stack)) {
					t.Errorf("message %q does not lead with the original and end with the stack", msg)
				}
				overlapped = bp.value
			}
			if fmt.Sprint(overlapped) != fmt.Sprint(inline) {
				t.Errorf("overlapped panic %q, inline %q", overlapped, inline)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left running, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestPipelineZeroAllocs: with the back end on its own goroutine, the
// streamed calls allocate nothing either.
func TestPipelineZeroAllocs(t *testing.T) {
	m := newM(t, arch.Page4K)
	const n = 16 * arch.MB
	va := m.MustMalloc(n)
	rng := rand.New(rand.NewSource(2))
	step := func() {
		off := arch.VAddr(rng.Uint64() % (n / 8) * 8)
		m.Store64(va+off, m.Load64(va+off)+1)
		m.Ops(2)
		m.Branch(uint64(off)&0x3ff, off&8 == 0)
		m.Poke64(va+off, 3)
	}
	m.Overlap(context.Background(), func() {
		for i := 0; i < 20_000; i++ {
			step()
		}
		if avg := testing.AllocsPerRun(2000, step); avg != 0 {
			t.Errorf("overlapped access path allocates %.2f allocs/op, want 0", avg)
		}
	})
}
