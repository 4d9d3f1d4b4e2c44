package workloads

import (
	"math/rand"
	"slices"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/machine"
)

func TestPresetPick(t *testing.T) {
	if got := Tiny.pick(9); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Tiny.pick(9) = %v", got)
	}
	got := Medium.pick(9)
	if len(got) != 6 || got[0] != 0 || got[len(got)-1] != 8 {
		t.Errorf("Medium.pick(9) = %v; must span first..last", got)
	}
	if got := Large.pick(5); len(got) != 5 {
		t.Errorf("Large.pick(5) = %v", got)
	}
	if got := Small.pick(2); len(got) != 2 {
		t.Errorf("Small.pick(2) = %v", got)
	}
	if got := Small.pick(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("Small.pick(1) = %v", got)
	}
}

func TestParsePreset(t *testing.T) {
	for _, s := range []string{"tiny", "small", "medium", "large"} {
		if _, err := ParsePreset(s); err != nil {
			t.Errorf("ParsePreset(%q): %v", s, err)
		}
	}
	if _, err := ParsePreset("huge"); err == nil {
		t.Error("ParsePreset(huge) accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, s *Spec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(s)
	}
	build := func(m *machine.Machine, p uint64) (Instance, error) { return nil, nil }
	mustPanic("empty ladder", &Spec{Program: "x", Generator: "y", Build: build})
	mustPanic("nil build", &Spec{Program: "x", Generator: "y", Ladder: []uint64{1}})
	mustPanic("unsorted", &Spec{Program: "x", Generator: "y", Ladder: []uint64{2, 1}, Build: build})
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("RNG nondeterministic")
		}
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(0) // zero seed remapped
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestRNGRoughlyUniform(t *testing.T) {
	r := NewRNG(9)
	var buckets [8]int
	const n = 80000
	for i := 0; i < n; i++ {
		buckets[r.Intn(8)]++
	}
	for i, b := range buckets {
		if b < n/8*9/10 || b > n/8*11/10 {
			t.Errorf("bucket %d count %d far from %d", i, b, n/8)
		}
	}
}

func TestArrayBoundsChecked(t *testing.T) {
	m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArray(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	a.Set(3, 9)
	if a.Get(3) != 9 {
		t.Error("round trip failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	a.Get(4)
}

func TestArrayPokePeekBypassCounters(t *testing.T) {
	m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArray(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	a.Poke(5, 77)
	if a.Peek(5) != 77 {
		t.Error("poke/peek round trip failed")
	}
	if m.Accesses() != 0 {
		t.Error("poke/peek retired accesses")
	}
	if a.Get(5) != 77 {
		t.Error("timed read does not see poked data")
	}
}

func TestBudget(t *testing.T) {
	m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewArray(m, 100)
	b := NewBudget(m, 10)
	if b.Done() {
		t.Fatal("fresh budget done")
	}
	for i := uint64(0); i < 10; i++ {
		a.Get(i)
	}
	if !b.Done() {
		t.Error("budget not done after 10 accesses")
	}
}

// TestRunEndProperties checks RunEnd against its contract on random
// array layouts: the run is non-empty and at most RunWords long, no
// listed array starts a page strictly inside it, and it ends at the limit
// or where some array starts a page.
func TestRunEndProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	startsPage := func(a Array, j uint64) bool { return uint64(a.Addr(j))%(4*arch.KB) == 0 }
	for trial := 0; trial < 2000; trial++ {
		arrs := make([]Array, 1+rng.Intn(4))
		for k := range arrs {
			arrs[k] = Array{base: arch.VAddr(rng.Uint64()%(1<<30)) &^ 7, n: 1 << 20}
		}
		limit := uint64(rng.Intn(1 << 14))
		i := uint64(rng.Intn(1 << 14))
		e := RunEnd(i, limit, arrs...)
		if i >= limit {
			if e != limit {
				t.Fatalf("RunEnd(%d, %d) = %d, want the limit", i, limit, e)
			}
			continue
		}
		if e <= i || e > limit || e-i > RunWords {
			t.Fatalf("RunEnd(%d, %d) = %d: not a run of 1..%d words within the limit", i, limit, e, RunWords)
		}
		for j := i + 1; j < e; j++ {
			for _, a := range arrs {
				if startsPage(a, j) {
					t.Fatalf("RunEnd(%d, %d) = %d, but an array starts a page at %d", i, limit, e, j)
				}
			}
		}
		if e < limit && !slices.ContainsFunc(arrs, func(a Array) bool { return startsPage(a, e) }) {
			t.Fatalf("RunEnd(%d, %d) = %d, but no array starts a page there", i, limit, e)
		}
	}
}

// prefaultLog is a machine.Tracer that records only the quiet prefaults.
type prefaultLog struct{ pages []arch.VAddr }

func (l *prefaultLog) Load(arch.VAddr)           {}
func (l *prefaultLog) Store(arch.VAddr)          {}
func (l *prefaultLog) Ops(uint64)                {}
func (l *prefaultLog) Branch(uint64, bool)       {}
func (l *prefaultLog) Malloc(arch.VAddr, uint64) {}
func (l *prefaultLog) Prefault(page arch.VAddr)  { l.pages = append(l.pages, page) }

// TestRunWiseFillMatchesElementWise fills three interleaved arrays — two
// small ones that share arena pages at unaligned offsets and one large
// page-aligned one — element by element with Poke on one machine and run
// by run with FillRuns and Fill on another. Pages must be first touched
// in the same order and every element must read back the same.
func TestRunWiseFillMatchesElementWise(t *testing.T) {
	build := func() (*machine.Machine, *prefaultLog, []Array) {
		m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 1)
		if err != nil {
			t.Fatal(err)
		}
		var arrs []Array
		for _, n := range []uint64{3000, 5000, 40000} {
			a, err := NewArray(m, n)
			if err != nil {
				t.Fatal(err)
			}
			arrs = append(arrs, a)
		}
		log := &prefaultLog{}
		m.SetTracer(log)
		return m, log, arrs
	}
	val := func(k int, i uint64) uint64 { return uint64(k)<<40 | i*2654435761 }
	const n = 3000

	_, single, sa := build()
	for i := uint64(0); i < n; i++ {
		for k, a := range sa {
			a.Poke(i, val(k, i))
		}
	}
	for i := uint64(0); i < sa[2].Len(); i++ {
		sa[2].Poke(i, ^i)
	}

	_, batched, ba := build()
	FillRuns(n, func(i uint64) Row { return Row{val(0, i), val(1, i), val(2, i)} }, ba...)
	ba[2].Fill(ba[2].Len(), func(i uint64) uint64 { return ^i })

	if !slices.Equal(batched.pages, single.pages) || len(single.pages) == 0 {
		t.Fatalf("prefault order differs:\nrun-wise     %#x\nelement-wise %#x", batched.pages, single.pages)
	}
	for k := range sa {
		for i := uint64(0); i < sa[k].Len(); i++ {
			if b, s := ba[k].Peek(i), sa[k].Peek(i); b != s {
				t.Fatalf("array %d element %d: %#x vs %#x", k, i, b, s)
			}
		}
	}
}

// TestFillRunsZeroAllocs gates a three-array fill over mapped pages, and
// Fill on top of it, to zero heap allocations.
func TestFillRunsZeroAllocs(t *testing.T) {
	m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 1)
	if err != nil {
		t.Fatal(err)
	}
	var arrs [3]Array
	for k := range arrs {
		if arrs[k], err = NewArray(m, 3000); err != nil {
			t.Fatal(err)
		}
	}
	inf := ^uint64(0)
	fill := func() { FillRuns(3000, func(uint64) Row { return Row{inf, 0, 0} }, arrs[:]...) }
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("FillRuns allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(20, func() { arrs[0].Fill(3000, func(i uint64) uint64 { return i }) }); n != 0 {
		t.Errorf("Fill allocates %v times per call", n)
	}
}

func TestFillRunsRejectsTooManyArrays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FillRuns over four arrays did not panic")
		}
	}()
	FillRuns(0, func(uint64) Row { return Row{} }, make([]Array, 4)...)
}

func TestPokeRunBoundsChecked(t *testing.T) {
	m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArray(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	a.PokeRun(10, nil) // empty run at the end is in range
	defer func() {
		if recover() == nil {
			t.Error("run past the end did not panic")
		}
	}()
	a.PokeRun(8, make([]uint64, 3))
}
