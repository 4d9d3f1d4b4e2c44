package workloads

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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

// TestRNGSkipMatchesNext requires Skip(k) to leave a generator where k
// calls to Next would, from a few starting points.
func TestRNGSkipMatchesNext(t *testing.T) {
	for _, seed := range []uint64{0, 5, 1 << 63} {
		for _, k := range []uint64{0, 1, 2, 1000} {
			a, b := NewRNG(seed), NewRNG(seed)
			a.Next() // start mid-stream
			b.Next()
			for range k {
				a.Next()
			}
			b.Skip(k)
			for i := 0; i < 3; i++ {
				if x, y := a.Next(), b.Next(); x != y {
					t.Fatalf("seed %d: draw %d after Skip(%d) = %#x, after %d Next calls %#x", seed, i, k, y, k, x)
				}
			}
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

// TestRunEndProperties checks runEnd against its contract on random
// array layouts: the run is non-empty and at most runWords long, no
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
		e := runEnd(i, limit, arrs...)
		if i >= limit {
			if e != limit {
				t.Fatalf("runEnd(%d, %d) = %d, want the limit", i, limit, e)
			}
			continue
		}
		if e <= i || e > limit || e-i > runWords {
			t.Fatalf("runEnd(%d, %d) = %d: not a run of 1..%d words within the limit", i, limit, e, runWords)
		}
		for j := i + 1; j < e; j++ {
			for _, a := range arrs {
				if startsPage(a, j) {
					t.Fatalf("runEnd(%d, %d) = %d, but an array starts a page at %d", i, limit, e, j)
				}
			}
		}
		if e < limit && !slices.ContainsFunc(arrs, func(a Array) bool { return startsPage(a, e) }) {
			t.Fatalf("runEnd(%d, %d) = %d, but no array starts a page there", i, limit, e)
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

// elementWise is FillRuns' reference: it stages and pokes one element at
// a time, every array at i before moving to i+1, so each stage call sees
// a run of one element and reads every earlier element from guest memory.
func elementWise(n uint64, stage func(s uint64, runs [][]uint64), arrs ...Array) {
	var slots [maxFillArrays][1]uint64
	runs := make([][]uint64, len(arrs))
	for i := uint64(0); i < n; i++ {
		for k := range runs {
			runs[k] = slots[k][:]
		}
		stage(i, runs)
		for k, a := range arrs {
			a.Poke(i, slots[k][0])
		}
	}
}

// fillVal is the word a test fill stores at element i of its k-th array.
func fillVal(k int, i uint64) uint64 { return uint64(k)<<40 | i*2654435761 }

// stageVals stages fillVal into every run.
func stageVals(s uint64, runs [][]uint64) {
	for k, r := range runs {
		for j := range r {
			r[j] = fillVal(k, s+uint64(j))
		}
	}
}

// TestRunWiseFillMatchesElementWise fills arrays run by run with FillRuns
// on one machine and element by element on another, with the same stage.
// The cases cover one, two and three arrays whose bases sit at different
// page offsets (small arrays share arena pages; a large one is page
// aligned), lengths that end mid-page, an empty fill, consecutive fills,
// and mcf's tree stage, which reads back a depth staged earlier in the
// same run. Every case ends with a non-empty fill, so both sides must
// first touch at least one page, in the same order, and every element
// must read back the same.
func TestRunWiseFillMatchesElementWise(t *testing.T) {
	// mcfTree is mcf's parent/depth/pot stage over its own generator.
	mcfTree := func(arrs []Array) func(s uint64, runs [][]uint64) {
		rng := NewRNG(99)
		return func(s uint64, runs [][]uint64) {
			parent, depth, pot := runs[0], runs[1], runs[2]
			for j := range parent {
				i := s + uint64(j)
				if i == 0 {
					parent[j], depth[j], pot[j] = 0, 0, 0
					continue
				}
				p := rng.Intn(i)
				var d uint64
				if p >= s {
					d = depth[p-s]
				} else {
					d = arrs[1].Peek(p)
				}
				parent[j], depth[j], pot[j] = p, d+1, rng.Intn(2000)
			}
		}
	}
	type fill struct {
		arrs  []int // indices into the case's arrays
		n     uint64
		stage func(arrs []Array) func(s uint64, runs [][]uint64)
	}
	vals := func([]Array) func(uint64, [][]uint64) { return stageVals }
	for _, tc := range []struct {
		name  string
		sizes []uint64 // word counts, allocated in order
		fills []fill
	}{
		{"one array ending mid-page", []uint64{5, 3000},
			[]fill{{[]int{1}, 2999, vals}}},
		{"two arrays at different offsets", []uint64{37, 1500, 2500},
			[]fill{{[]int{1, 2}, 1500, vals}}},
		{"three arrays, then one whole", []uint64{3000, 5000, 40000},
			[]fill{{[]int{0, 1, 2}, 3000, vals}, {[]int{2}, 40000, vals}}},
		{"empty fill", []uint64{100, 200},
			[]fill{{[]int{0, 1}, 0, vals}, {[]int{1}, 150, vals}}},
		{"mcf tree reads back staged depths", []uint64{11, 3001, 3001, 3001},
			[]fill{{[]int{1, 2, 3}, 3001, mcfTree}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*prefaultLog, []Array) {
				m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 1)
				if err != nil {
					t.Fatal(err)
				}
				var arrs []Array
				for _, n := range tc.sizes {
					a, err := NewArray(m, n)
					if err != nil {
						t.Fatal(err)
					}
					arrs = append(arrs, a)
				}
				log := &prefaultLog{}
				m.SetTracer(log)
				return log, arrs
			}
			run := func(fillFn func(uint64, func(uint64, [][]uint64), ...Array)) (*prefaultLog, []Array) {
				log, all := build()
				for _, f := range tc.fills {
					var arrs []Array
					for _, k := range f.arrs {
						arrs = append(arrs, all[k])
					}
					fillFn(f.n, f.stage(arrs), arrs...)
				}
				return log, all
			}
			single, sa := run(elementWise)
			batched, ba := run(FillRuns)
			if !slices.Equal(batched.pages, single.pages) || len(single.pages) == 0 {
				t.Fatalf("prefault order differs or is empty:\nrun-wise     %#x\nelement-wise %#x", batched.pages, single.pages)
			}
			for k := range sa {
				for i := uint64(0); i < sa[k].Len(); i++ {
					if b, s := ba[k].Peek(i), sa[k].Peek(i); b != s {
						t.Fatalf("array %d element %d: %#x vs %#x", k, i, b, s)
					}
				}
			}
		})
	}
}

// TestFillRunsZeroAllocs gates three-array and one-array fills over
// mapped pages to zero heap allocations: the staging buffers come back
// through the free list.
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
	fill := func() {
		FillRuns(3000, func(_ uint64, runs [][]uint64) {
			for j := range runs[0] {
				runs[0][j], runs[1][j], runs[2][j] = inf, 0, 0
			}
		}, arrs[:]...)
	}
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("FillRuns over three arrays allocates %v times per call", n)
	}
	one := func() {
		FillRuns(3000, func(s uint64, runs [][]uint64) {
			for j := range runs[0] {
				runs[0][j] = s + uint64(j)
			}
		}, arrs[0])
	}
	if n := testing.AllocsPerRun(20, one); n != 0 {
		t.Errorf("FillRuns over one array allocates %v times per call", n)
	}
}

// TestFillRunsConcurrent fills on two machines from two goroutines at
// once, as a parallel campaign does, so fills take and return staging
// buffers concurrently; run it under -race. Each machine must hold only
// its own values.
func TestFillRunsConcurrent(t *testing.T) {
	const n, rounds = 5000, 20
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range 2 {
		m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 1)
		if err != nil {
			t.Fatal(err)
		}
		var arrs [2]Array
		for k := range arrs {
			if arrs[k], err = NewArray(m, n); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				tag := uint64(g)<<56 | uint64(r)<<48
				FillRuns(n, func(s uint64, runs [][]uint64) {
					for k, run := range runs {
						for j := range run {
							run[j] = tag | fillVal(k, s+uint64(j))
						}
					}
				}, arrs[:]...)
				for k, a := range arrs {
					for i := uint64(0); i < n; i++ {
						if got, want := a.Peek(i), tag|fillVal(k, i); got != want {
							errs[g] = fmt.Errorf("machine %d round %d array %d element %d = %#x, want %#x", g, r, k, i, got, want)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestFillRunsRejectsTooManyArrays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FillRuns over four arrays did not panic")
		}
	}()
	FillRuns(0, func(uint64, [][]uint64) {}, make([]Array, 4)...)
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

// BenchmarkFillRuns fills one and three arrays of 2 MB each over mapped
// pages, the staging and copying cost of set-up per word (the first
// iteration also first-touches the pages).
func BenchmarkFillRuns(b *testing.B) {
	const words = 2 * arch.MB / 8
	for _, narr := range []int{1, 3} {
		b.Run(fmt.Sprintf("arrays=%d", narr), func(b *testing.B) {
			m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Release()
			arrs := make([]Array, narr)
			for k := range arrs {
				if arrs[k], err = NewArray(m, words); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FillRuns(words, func(s uint64, runs [][]uint64) {
					for k, r := range runs {
						for j := range r {
							r[j] = uint64(k) ^ (s + uint64(j))
						}
					}
				}, arrs...)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*words*narr), "ns/word")
		})
	}
}
