package streamcluster

import (
	"math"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/machine"
	"atscale/internal/perf"
	"atscale/internal/workloads"
)

func newC(t *testing.T, n uint64) (*machine.Machine, *cluster) {
	t.Helper()
	m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCluster(m, n)
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

func TestSetupSeedsFirstCenter(t *testing.T) {
	_, c := newC(t, 256)
	if c.ncent != 1 {
		t.Fatalf("ncent = %d", c.ncent)
	}
	for d := uint64(0); d < dim; d++ {
		if c.centers.Peek(d) != c.points.Peek(d) {
			t.Fatal("center 0 != point 0")
		}
	}
}

func TestRunOpensCenters(t *testing.T) {
	m, c := newC(t, 1024)
	start := m.Counters()
	c.Run(100_000)
	if c.ncent < 2 {
		t.Errorf("no centers opened (ncent = %d)", c.ncent)
	}
	if c.ncent > maxCenters {
		t.Errorf("ncent %d exceeds maxCenters", c.ncent)
	}
	d := perf.Delta(start, m.Counters())
	acc := d.Get(perf.AllLoads) + d.Get(perf.AllStores)
	if acc < 100_000 {
		t.Errorf("accesses = %d under budget", acc)
	}
	if d.Get(perf.Branches) == 0 {
		t.Error("no branches")
	}
}

func TestScanDominantMix(t *testing.T) {
	// streamcluster is scan-dominant: the retired-walk rate must be far
	// lower than a random-access workload's at similar footprint.
	m, c := newC(t, 1<<14) // 2M points words -> 16MB, beyond STLB reach
	start := m.Counters()
	c.Run(200_000)
	d := perf.Delta(start, m.Counters())
	met := perf.Compute(d)
	if met.TLBMissesPerKiloAccess > 50 {
		t.Errorf("TLB misses per kiloaccess = %.1f; expected scan-dominant (<50)",
			met.TLBMissesPerKiloAccess)
	}
}

func TestRegistered(t *testing.T) {
	if _, err := workloads.ByName("streamcluster-rand"); err != nil {
		t.Fatal(err)
	}
}

// TestPointsReadBack reads every deferred point word back, from the last
// one, against the stream drawn in order, and requires Run's generator
// to draw on from after the last point.
func TestPointsReadBack(t *testing.T) {
	const n = 1024
	_, c := newC(t, n)
	rng := workloads.NewRNG(n ^ 0x7363)
	want := make([]uint64, n*dim)
	for i := range want {
		want[i] = math.Float64bits(rng.Float64())
	}
	for i := uint64(len(want)); i > 0; i-- {
		if got := c.points.Peek(i - 1); got != want[i-1] {
			t.Fatalf("point word %d reads %#x, want %#x", i-1, got, want[i-1])
		}
	}
	if got, want := c.rng.Intn(c.npoints), rng.Intn(n); got != want {
		t.Errorf("first draw after the build: %d, want %d", got, want)
	}
}
