package micro

import (
	"testing"

	"atscale/internal/arch"
	"atscale/internal/machine"
	"atscale/internal/perf"
	"atscale/internal/workloads"
)

func newM(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 5)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEmbedGathersAcrossTables(t *testing.T) {
	m := newM(t)
	inst, err := newEmbed(m, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	e := inst.(*embed)
	start := m.Counters()
	e.Run(50_000)
	d := perf.Delta(start, m.Counters())
	acc := d.Get(perf.AllLoads) + d.Get(perf.AllStores)
	if acc < 50_000 {
		t.Errorf("embed ran %d accesses", acc)
	}
	// Accesses per instruction should be well below 1 (dense layer work).
	met := perf.Compute(d)
	if met.Eq1.AccessesPerInstruction > 0.8 {
		t.Errorf("embed accesses/instr = %.2f, want dense-layer dilution", met.Eq1.AccessesPerInstruction)
	}
}

func TestAllRegistered(t *testing.T) {
	for _, n := range []string{"gups-rand", "btree-rand", "hashjoin-rand", "embed-rand"} {
		spec, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Suite != "micro" {
			t.Errorf("%s suite = %q", n, spec.Suite)
		}
	}
}

func TestGUPSUpdatesMatchReference(t *testing.T) {
	m := newM(t)
	inst, err := newGUPS(m, 20) // 1MB table
	if err != nil {
		t.Fatal(err)
	}
	g := inst.(*gups)
	// Host reference model of the same update stream.
	words := g.table.Len()
	ref := make([]uint64, words)
	for i := range ref {
		ref[i] = uint64(i)
	}
	x := uint64(0x2545F4914F6CDD1D)
	nextRef := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	g.Run(30_000)
	// Replay the same number of updates on the host model. Each GUPS
	// iteration retires 2 accesses (load+store).
	updates := m.Accesses() / 2
	for i := uint64(0); i < updates; i++ {
		r := nextRef()
		ref[r%words] ^= r
	}
	for i := uint64(0); i < words; i += 97 {
		if got := g.table.Peek(i); got != ref[i] {
			t.Fatalf("table[%d] = %#x, reference %#x", i, got, ref[i])
		}
	}
}

func TestGUPSIsTranslationIntensive(t *testing.T) {
	m := newM(t)
	inst, err := newGUPS(m, 26) // 64MB
	if err != nil {
		t.Fatal(err)
	}
	start := m.Counters()
	inst.Run(60_000)
	met := perf.Compute(perf.Delta(start, m.Counters()))
	if met.TLBMissesPerKiloAccess < 300 {
		t.Errorf("gups@64MB misses/kacc = %.0f, want TLB thrash", met.TLBMissesPerKiloAccess)
	}
}

func TestBTreeProbesFindInsertedKeys(t *testing.T) {
	m := newM(t)
	inst, err := newBTree(m, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	bt := inst.(*btree)
	// Every key must be found with its stored value.
	for i := 0; i < len(bt.keys); i += 37 {
		k := bt.keys[i]
		v, ok := bt.probe(k)
		if !ok || v != k^0x5a5a {
			t.Fatalf("probe(%#x) = %#x, %v", k, v, ok)
		}
	}
	// Absent keys must miss.
	misses := 0
	for i := 0; i < 100; i++ {
		k := bt.rng.Next() >> 1
		if _, ok := bt.probe(k); !ok {
			misses++
		}
	}
	if misses < 95 {
		t.Errorf("only %d/100 absent probes missed", misses)
	}
}

func TestBTreeRunCountsFound(t *testing.T) {
	m := newM(t)
	inst, err := newBTree(m, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	bt := inst.(*btree)
	bt.Run(50_000)
	if bt.found == 0 {
		t.Error("no probes succeeded")
	}
}

func TestHashJoinMatchRate(t *testing.T) {
	m := newM(t)
	inst, err := newHashJoin(m, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	h := inst.(*hashjoin)
	h.Run(100_000)
	// ~half the probes are drawn from the build side; matches must be in
	// that ballpark relative to completed probes. Lower bound loosely.
	if h.matches == 0 {
		t.Fatal("join produced no matches")
	}
}

func TestMicroWorkloadsRunUnderBudget(t *testing.T) {
	for _, name := range []string{"gups-rand", "btree-rand", "hashjoin-rand"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := newM(t)
		inst, err := spec.Build(m, spec.Sizes(workloads.Tiny)[0])
		if err != nil {
			t.Fatal(err)
		}
		start := m.Counters()
		inst.Run(40_000)
		d := perf.Delta(start, m.Counters())
		acc := d.Get(perf.AllLoads) + d.Get(perf.AllStores)
		if acc < 40_000 || acc > 120_000 {
			t.Errorf("%s: %d accesses for 40k budget", name, acc)
		}
		if d.Get(perf.Branches) == 0 {
			t.Errorf("%s: no branches", name)
		}
	}
}

// TestHashJoinProbeKeysReadBack reads every deferred probe key back,
// from the last one, against the build and probe streams drawn in order.
func TestHashJoinProbeKeysReadBack(t *testing.T) {
	const nbuild = 1 << 12
	inst, err := newHashJoin(newM(t), nbuild)
	if err != nil {
		t.Fatal(err)
	}
	h := inst.(*hashjoin)
	rng := workloads.NewRNG(nbuild ^ 0x4a014a)
	buildKeys := make([]uint64, nbuild)
	for i := range buildKeys {
		buildKeys[i] = rng.Next()
	}
	want := make([]uint64, probeFactor*nbuild)
	for i := range want {
		if rng.Float64() < matchShare {
			want[i] = buildKeys[rng.Intn(nbuild)]
		} else {
			want[i] = rng.Next() | 1<<63
		}
	}
	for i := uint64(len(want)); i > 0; i-- {
		if got := h.probeKeys.Peek(i - 1); got != want[i-1] {
			t.Fatalf("probe key %d reads %#x, want %#x", i-1, got, want[i-1])
		}
	}
}
