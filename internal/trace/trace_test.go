package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/core"
	"atscale/internal/machine"
	"atscale/internal/perf"
	"atscale/internal/workloads"
	_ "atscale/internal/workloads/all"
)

func TestRoundTripEncoding(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rng := rand.New(rand.NewSource(8))
	var want []Event
	for i := 0; i < 5000; i++ {
		switch rng.Intn(7) {
		case 0:
			va := arch.VAddr(rng.Uint64() >> 16)
			w.Load(va)
			want = append(want, Event{KLoad, uint64(va), 0})
		case 1:
			va := arch.VAddr(rng.Uint64() >> 16)
			w.Store(va)
			want = append(want, Event{KStore, uint64(va), 0})
		case 2:
			n := uint64(rng.Intn(100))
			w.Ops(n)
			want = append(want, Event{KOps, n, 0})
		case 3:
			pc := rng.Uint64() >> 40
			taken := rng.Intn(2) == 0
			w.Branch(pc, taken)
			k := KBranchTaken
			if !taken {
				k = KBranchNotTaken
			}
			want = append(want, Event{k, pc, 0})
		case 4:
			va, n := arch.VAddr(rng.Uint64()>>20), uint64(rng.Intn(1<<20))
			w.Malloc(va, n)
			want = append(want, Event{KMalloc, uint64(va), n})
		case 5:
			w.emit(KSteady)
			want = append(want, Event{KSteady, 0, 0})
		default:
			va := arch.VAddr(rng.Uint64() >> 16 &^ 0xFFF)
			w.Prefault(va)
			want = append(want, Event{KPrefault, uint64(va), 0})
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != uint64(len(want)) {
		t.Fatalf("writer counted %d events, want %d", w.Events(), len(want))
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, wantE := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != wantE {
			t.Fatalf("event %d = %+v, want %+v", i, got, wantE)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("expected clean EOF, got %v", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewBufferString("nope")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Malloc(0x1000, 1<<30)
	w.Flush()
	short := buf.Bytes()[:buf.Len()-1]
	r, err := NewReader(bytes.NewReader(short))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated record gave %v, want unexpected EOF", err)
	}
}

// TestRecordReplayCounterIdentity is the headline property: a unit
// recorded through core.Run, replayed through core.Run on an identically
// configured machine, reproduces the recorded unit's measured counters
// exactly, with the counter identities holding on both runs. Native 4KB
// and 2MB, nested, hashed and Victima machines are covered.
func TestRecordReplayCounterIdentity(t *testing.T) {
	spec, err := workloads.ByName("bfs-urand")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		pages arch.PageSize
		set   func(*arch.SystemConfig)
	}{
		{"4KB", arch.Page4K, func(*arch.SystemConfig) {}},
		{"2MB", arch.Page2M, func(*arch.SystemConfig) {}},
		{"virt", arch.Page4K, func(s *arch.SystemConfig) { s.Virt = arch.DefaultVirt() }},
		{"hashed", arch.Page4K, func(s *arch.SystemConfig) { s.PageTable = "hashed" }},
		{"victima", arch.Page4K, func(s *arch.SystemConfig) { s.Scheme = "victima" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := core.DefaultRunConfig()
			cfg.Budget, cfg.Seed = 80_000, 9
			c.set(&cfg.System)
			cfg.Refute = core.NewCampaignChecker()
			var buf bytes.Buffer
			w := NewWriter(&buf)
			rec, err := core.Run(&cfg, Record(spec, w), 12, c.pages)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			// Replay, which skips KSteady, replays every event.
			m, err := machine.New(cfg.System, c.pages, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Release()
			if n, err := Replay(m, bytes.NewReader(raw), 0); err != nil || n != w.Events() {
				t.Fatalf("Replay replayed %d of %d events: %v", n, w.Events(), err)
			}
			p, err := NewPlayer(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.Run(&cfg, p.Spec("bfs"), 0, c.pages)
			if err != nil {
				t.Fatal(err)
			}
			if p.Err != nil {
				t.Fatal(p.Err)
			}
			if rec.Counters.Get(perf.InstRetired) == 0 {
				t.Fatal("recorded unit retired no instructions")
			}
			if rec.Counters != rep.Counters {
				t.Error("replayed unit's counters differ from the recorded unit's")
			}
			if rec.Footprint != rep.Footprint {
				t.Errorf("footprints differ: %d vs %d", rec.Footprint, rep.Footprint)
			}
			if r := cfg.Refute.Report(); r.Units != 2 || r.TotalViolations != 0 {
				t.Errorf("refute report: %d units, %d violations; want 2 units, none violated", r.Units, r.TotalViolations)
			}
		})
	}
}

// TestPlayerNeedsSteady: a trace with no KSteady event does not say where
// the measured region starts, so its replay fails to build rather than
// guessing.
func TestPlayerNeedsSteady(t *testing.T) {
	raw, _ := recordMix(t, func(_ *machine.Machine, f func()) { f() })
	p, err := NewPlayer(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultRunConfig()
	if _, err := core.Run(&cfg, p.Spec("mix"), 0, arch.Page4K); err == nil || !strings.Contains(err.Error(), "KSteady") {
		t.Errorf("replaying a trace without KSteady gave %v, want a missing-KSteady error", err)
	}
}

// recordMix records a short program on a fresh machine: allocations with
// both Malloc and MustMalloc, set-up pokes, then inside run a measured
// mix with pokes and peeks between the timed accesses. It returns the
// trace and the recorded machine.
func recordMix(t *testing.T, run func(m *machine.Machine, f func())) ([]byte, *machine.Machine) {
	t.Helper()
	m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	m.SetTracer(w)
	a := m.MustMalloc(8 * arch.MB)
	b, err := m.Malloc(64 * arch.KB)
	if err != nil {
		t.Fatal(err)
	}
	c := m.MustMalloc(300)
	for off := uint64(0); off < 4*arch.MB; off += 4096 {
		m.Poke64(a+arch.VAddr(off), off)
	}
	m.Poke64(c, 1)
	rng := rand.New(rand.NewSource(6))
	run(m, func() {
		for i := 0; i < 30_000; i++ {
			va := a + arch.VAddr(rng.Uint64()%(8*arch.MB/8)*8)
			v := m.Load64(va)
			m.Branch(0x10, v&1 == 0)
			switch rng.Intn(10) {
			case 0:
				m.Poke64(b+arch.VAddr(rng.Uint64()%(64*arch.KB/8)*8), v)
			case 1:
				m.Peek64(a + arch.VAddr(rng.Uint64()%(8*arch.MB/8)*8))
			default:
				m.Store64(va, v+1)
				m.Ops(2)
			}
		}
	})
	m.SetTracer(nil)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), m
}

// TestRecordReplayMustMalloc: allocations made with MustMalloc are
// recorded like Malloc's, so replaying a trace that uses both lands every
// allocation at its recorded address and reproduces the counters.
func TestRecordReplayMustMalloc(t *testing.T) {
	raw, rec := recordMix(t, func(_ *machine.Machine, f func()) { f() })
	rep, err := machine.New(arch.DefaultSystem(), arch.Page4K, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(rep, bytes.NewReader(raw), 0); err != nil {
		t.Fatal(err)
	}
	if rec.Counters() != rep.Counters() {
		t.Error("replay counters differ from recording")
	}
}

// TestRecordOverlapMatchesInline: recording while the timing back end
// runs on its own goroutine writes the same trace, prefaults in place,
// as recording inline.
func TestRecordOverlapMatchesInline(t *testing.T) {
	inline, _ := recordMix(t, func(_ *machine.Machine, f func()) { f() })
	overlapped, _ := recordMix(t, func(m *machine.Machine, f func()) { m.Overlap(context.Background(), f) })
	if !bytes.Equal(inline, overlapped) {
		t.Errorf("overlapped recording differs from inline (%d vs %d bytes)", len(overlapped), len(inline))
	}
}

// TestReplayOnDifferentMachine replays a trace on a modified machine —
// the what-if use case — and sees the expected directional change.
func TestReplayOnDifferentMachine(t *testing.T) {
	spec, err := workloads.ByName("gups-rand")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := machine.New(arch.DefaultSystem(), arch.Page4K, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec.SetTracer(w)
	inst, err := spec.Build(rec, 25) // 32MB table
	if err != nil {
		t.Fatal(err)
	}
	inst.Run(60_000)
	rec.SetTracer(nil)
	w.Flush()
	raw := buf.Bytes()

	small := arch.DefaultSystem()
	big := arch.DefaultSystem()
	big.STLB.Entries = 8192
	run := func(cfg arch.SystemConfig) uint64 {
		m, err := machine.New(cfg, arch.Page4K, 9)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(m, bytes.NewReader(raw), 0); err != nil {
			t.Fatal(err)
		}
		c := m.Counters()
		return c.Get(perf.STLBMissLoads)
	}
	if s, b := run(small), run(big); b >= s {
		t.Errorf("8x STLB did not reduce retired walk loads on replay: %d vs %d", b, s)
	}
}
