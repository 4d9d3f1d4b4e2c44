// Package workloads defines the workload abstraction of the paper's
// methodology (§IV): a *workload* is a program plus an input generator,
// swept over input sizes to produce instances with growing memory
// footprints. Concrete workloads live in subpackages (graph, kvstore, mcf,
// streamcluster, synth) and register themselves here.
//
// Instances run against a simulated machine through its Load64 / Store64 /
// Ops / Branch API, so every data structure lives in simulated guest
// memory and every access exercises the full translation stack.
package workloads

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"atscale/internal/arch"
	"atscale/internal/machine"
)

// SizePreset selects how much of a workload's input-size ladder to sweep.
type SizePreset string

const (
	// Tiny is for unit tests: two small rungs.
	Tiny SizePreset = "tiny"
	// Small keeps runs to seconds: four rungs.
	Small SizePreset = "small"
	// Medium is the benchmark default: six rungs.
	Medium SizePreset = "medium"
	// Large is the full ladder (footprints to ~1 GB and beyond for
	// data-free workloads).
	Large SizePreset = "large"
)

// pick returns the ladder indices the preset selects. Tiny keeps the two
// smallest rungs (fast unit tests); Small and Medium spread their rungs
// evenly across the ladder, always including the largest, so reduced
// sweeps still cover the full footprint range; Large keeps everything.
func (p SizePreset) pick(total int) []int {
	var n int
	switch p {
	case Tiny:
		n = 2
		if n > total {
			n = total
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	case Small:
		n = 4
	case Medium:
		n = 6
	default:
		n = total
	}
	if n >= total {
		n = total
	}
	if n <= 1 {
		return []int{0}
	}
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		j := i * (total - 1) / (n - 1)
		if len(idx) == 0 || idx[len(idx)-1] != j {
			idx = append(idx, j)
		}
	}
	return idx
}

// ParsePreset validates a preset name.
func ParsePreset(s string) (SizePreset, error) {
	switch SizePreset(s) {
	case Tiny, Small, Medium, Large:
		return SizePreset(s), nil
	}
	return "", fmt.Errorf("workloads: unknown size preset %q", s)
}

// Instance is one built workload instance ready to execute its measured
// region.
type Instance interface {
	// Run executes the workload until roughly budget memory accesses
	// have retired, looping the algorithm (iterations, queries, sources)
	// as needed. Run may be called once per instance.
	Run(budget uint64)
}

// BuildFunc constructs an instance for a size parameter on machine m.
// Construction is the untimed setup phase (allocation + input
// generation + one warmup pass where the real program would have one).
type BuildFunc func(m *machine.Machine, param uint64) (Instance, error)

// Spec describes one workload (a Table I row crossed with a Table II
// generator).
type Spec struct {
	// Program is the benchmark program name ("bc", "mcf", ...).
	Program string
	// Generator is the input generator name ("urand", "kron", ...).
	Generator string
	// Suite is the benchmark suite the program comes from.
	Suite string
	// Kind is the program's domain ("graph processing (MT)", ...).
	Kind string
	// Ladder is the ascending list of size parameters (meaning is
	// workload-specific: graph scale, key count, node count...).
	Ladder []uint64
	// Build constructs an instance.
	Build BuildFunc
}

// Name returns the paper's workload naming: program-generator.
func (s *Spec) Name() string { return s.Program + "-" + s.Generator }

// Timeline phase-span names. Build marks "setup" (allocation, input
// generation, quiet prefaulting); RunPhased marks "steady" (the measured
// region). The machine's phase track carries them when tracing is on and
// records nothing otherwise.
const (
	PhaseSetup  = "setup"
	PhaseSteady = "steady"
)

// Instantiate builds the instance with the setup phase marked on the
// machine's timeline. It is the traced-aware form of calling s.Build
// directly.
func (s *Spec) Instantiate(m *machine.Machine, param uint64) (Instance, error) {
	m.BeginPhase(PhaseSetup)
	inst, err := s.Build(m, param)
	m.EndPhase()
	return inst, err
}

// RunPhased executes the instance's measured region with the steady
// phase marked on the machine's timeline. The workload runs beside the
// machine's timing back end (machine.Overlap), which runs under ctx's
// profile labels plus side=back; the results are those of an inline run.
func RunPhased(ctx context.Context, m *machine.Machine, inst Instance, budget uint64) {
	m.BeginPhase(PhaseSteady)
	m.Overlap(ctx, func() { inst.Run(budget) })
	m.EndPhase()
}

// Sizes returns the ladder rungs the preset selects.
func (s *Spec) Sizes(p SizePreset) []uint64 {
	idx := p.pick(len(s.Ladder))
	out := make([]uint64, len(idx))
	for i, j := range idx {
		out[i] = s.Ladder[j]
	}
	return out
}

var registry []*Spec

// Register adds a workload spec; subpackages call it from init.
// Registering a duplicate name or an empty ladder panics: these are
// programming errors.
func Register(s *Spec) {
	if len(s.Ladder) == 0 || s.Build == nil {
		panic(fmt.Sprintf("workloads: spec %q incomplete", s.Name()))
	}
	if !sort.SliceIsSorted(s.Ladder, func(i, j int) bool { return s.Ladder[i] < s.Ladder[j] }) {
		panic(fmt.Sprintf("workloads: spec %q ladder not ascending", s.Name()))
	}
	for _, r := range registry {
		if r.Name() == s.Name() {
			panic(fmt.Sprintf("workloads: duplicate spec %q", s.Name()))
		}
	}
	registry = append(registry, s)
}

// All returns every registered workload, sorted by name.
func All() []*Spec {
	out := append([]*Spec(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// ByName finds a workload by its program-generator name.
func ByName(name string) (*Spec, error) {
	for _, s := range registry {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// Array is a guest-memory array of 8-byte words: the container every
// workload builds its data structures from.
type Array struct {
	m    *machine.Machine
	base arch.VAddr
	n    uint64
}

// NewArray allocates an n-word array in guest memory.
func NewArray(m *machine.Machine, n uint64) (Array, error) {
	if n == 0 {
		n = 1
	}
	base, err := m.Malloc(n * 8)
	if err != nil {
		return Array{}, err
	}
	return Array{m: m, base: base, n: n}, nil
}

// Len returns the element count.
func (a Array) Len() uint64 { return a.n }

// Addr returns the virtual address of element i.
func (a Array) Addr(i uint64) arch.VAddr { return a.base + arch.VAddr(i*8) }

func (a Array) check(i uint64) {
	if i >= a.n {
		panic(fmt.Sprintf("workloads: index %d out of range [0,%d)", i, a.n))
	}
}

// Get retires a load of element i.
func (a Array) Get(i uint64) uint64 {
	a.check(i)
	return a.m.Load64(a.Addr(i))
}

// Set retires a store to element i.
func (a Array) Set(i uint64, v uint64) {
	a.check(i)
	a.m.Store64(a.Addr(i), v)
}

// Poke writes element i untimed (setup phase).
func (a Array) Poke(i uint64, v uint64) {
	a.check(i)
	a.m.Poke64(a.Addr(i), v)
}

// Peek reads element i untimed (setup phase).
func (a Array) Peek(i uint64) uint64 {
	a.check(i)
	return a.m.Peek64(a.Addr(i))
}

// PokeRun writes vs to elements i, i+1, ... untimed, translating once per
// 4 KB page instead of once per element (Machine.PokeWords).
func (a Array) PokeRun(i uint64, vs []uint64) {
	if i > a.n || uint64(len(vs)) > a.n-i {
		panic(fmt.Sprintf("workloads: run [%d,%d) out of range [0,%d)", i, i+uint64(len(vs)), a.n))
	}
	a.m.PokeWords(a.Addr(i), vs)
}

// runWords is the most elements a runEnd run holds: one 4 KB page of
// 8-byte words. FillRuns stages a run in a fixed [runWords]uint64 buffer
// per array, never a whole array.
const runWords = 4 * arch.KB / 8

// runEnd returns the first index after i at which any of arrs starts a
// new 4 KB page, capped at limit. Within [i, runEnd) every listed array
// stays on one page, so a fill that interleaves several arrays element by
// element can instead poke them run by run, in list order, and first
// touch their pages in exactly the element-by-element order. The run
// holds at most runWords elements.
func runEnd(i, limit uint64, arrs ...Array) uint64 {
	end := i + runWords
	for _, a := range arrs {
		if e := i + (4*arch.KB-uint64(a.Addr(i))&(4*arch.KB-1))/8; e < end {
			end = e
		}
	}
	return min(end, limit)
}

// maxFillArrays is the most arrays one FillRuns or DeferRuns call fills.
const maxFillArrays = 3

// FillRuns fills elements [0, n) of every array in arrs untimed, at most
// maxFillArrays arrays. It covers [0, n) with consecutive runEnd runs and,
// for each run starting at element s, calls stage(s, runs) once: runs[k]
// holds one slot per element of the run, and stage sets runs[k][j] to
// element s+j of arrs[k]. The slots hold whatever an earlier fill left,
// so stage sets every one. Each array's run is then poked in list order,
// so pages are first touched in the order of an element-by-element fill
// that pokes every array at i before moving to i+1. Runs come in
// ascending order of s, so a stage that draws values element by element
// draws them in that fill's order, and can read back a value staged
// earlier in the same run from runs, or one from an earlier run from
// guest memory. Set-up writes every element: a stage that needs none of
// that order is cheaper deferred (DeferRuns).
func FillRuns(n uint64, stage func(s uint64, runs [][]uint64), arrs ...Array) {
	checkFill(n, arrs)
	b := freeRunBufs.get()
	defer freeRunBufs.put(b)
	for s := uint64(0); s < n; {
		e := b.stage(s, n, stage, arrs)
		for k, a := range arrs {
			a.PokeRun(s, b.words[k][:e-s])
		}
		s = e
	}
}

// DeferRuns is FillRuns for a stage that is a pure function of s: one
// that reads no guest memory and keeps no state between calls, so it can
// stage any run, in any order, any number of times. It walks the same
// runs and quietly prefaults each array's page per run in FillRuns'
// order, so the back end sees the same events, but it writes no element.
// Instead it defers each array's elements to the machine's data store
// (Machine.DeferWords), which stages the runs of a 4 KB chunk when the
// workload first reads or writes it, in set-up or in the measured region.
// Set-up then costs the prefaults plus the chunks that are read. A
// deferral allocates once per array, never per run.
func DeferRuns(n uint64, stage func(s uint64, runs [][]uint64), arrs ...Array) {
	checkFill(n, arrs)
	// The generators outlive the call, so they keep a list of their own.
	arrs = slices.Clone(arrs)
	for k, a := range arrs {
		a.m.DeferWords(a.base, n, func(i uint64, ws []uint64) {
			b := freeRunBufs.get()
			defer freeRunBufs.put(b)
			end := i + uint64(len(ws))
			for s := i; s < end; {
				e := b.stage(s, end, stage, arrs)
				copy(ws[s-i:], b.words[k][:e-s])
				s = e
			}
		})
	}
	for s := uint64(0); s < n; s = runEnd(s, n, arrs...) {
		for _, a := range arrs {
			a.m.Prefault(a.Addr(s))
		}
	}
}

// checkFill panics unless arrs is a list FillRuns and DeferRuns can fill
// elements [0, n) of.
func checkFill(n uint64, arrs []Array) {
	if len(arrs) > maxFillArrays {
		panic(fmt.Sprintf("workloads: fill over %d arrays, at most %d", len(arrs), maxFillArrays))
	}
	for _, a := range arrs {
		if n > a.n {
			panic(fmt.Sprintf("workloads: fill of %d elements over an array of %d", n, a.n))
		}
	}
}

// runBufs stages one runEnd run per array of a fill: a FillRuns call or
// a deferred chunk's generation.
type runBufs struct {
	words [maxFillArrays][runWords]uint64
	runs  [maxFillArrays][]uint64
}

// stage stages the run of arrs from s to runEnd(s, limit) into b's words
// and returns its end. s must be where a fill over arrs starts a run: 0,
// or an element at which one of arrs starts a page.
func (b *runBufs) stage(s, limit uint64, stage func(s uint64, runs [][]uint64), arrs []Array) uint64 {
	e := runEnd(s, limit, arrs...)
	runs := b.runs[:len(arrs)]
	for k := range runs {
		runs[k] = b.words[k][:e-s]
	}
	stage(s, runs)
	return e
}

// runBufList is a free list of staging buffers. Machines fill on several
// goroutines at once, so it locks.
type runBufList struct {
	mu sync.Mutex
	//atlint:guardedby mu
	bufs []*runBufs
}

// freeRunBufs keeps staging buffers between fills, so a fill allocates
// nothing once one set per concurrent fill exists.
var freeRunBufs runBufList

// get takes a staging set off the list, or makes one.
func (l *runBufList) get() *runBufs {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.bufs)
	if n == 0 {
		return new(runBufs)
	}
	b := l.bufs[n-1]
	l.bufs = l.bufs[:n-1]
	return b
}

// put returns a staging set to the list.
func (l *runBufList) put(b *runBufs) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bufs = append(l.bufs, b)
}

// Budget tracks a Run's access budget against the machine's counters.
type Budget struct {
	m     *machine.Machine
	limit uint64
}

// NewBudget arms a budget of roughly n retired accesses.
func NewBudget(m *machine.Machine, n uint64) *Budget {
	return &Budget{m: m, limit: m.Accesses() + n}
}

// Done reports whether the budget is exhausted. Call it at coarse
// boundaries (per source, per iteration chunk); it reads two counters.
func (b *Budget) Done() bool { return b.m.Accesses() >= b.limit }
