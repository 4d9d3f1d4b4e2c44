package graph

import (
	"fmt"
	"sync"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// checkCSRReadsBack peeks every offset and neighbour of g, the
// neighbours from the last one back so that deferred chunks are
// generated out of order, and requires the host CSR's values.
func checkCSRReadsBack(t *testing.T, what string, g *CSR, h hostCSR) {
	t.Helper()
	if g.N != h.n || g.M != uint64(len(h.nbr)) {
		t.Fatalf("%s: CSR of %d vertices and %d entries, host CSR %d and %d", what, g.N, g.M, h.n, len(h.nbr))
	}
	for u := uint64(0); u <= g.N; u++ {
		if got := g.off.Peek(u); got != h.off[u] {
			t.Fatalf("%s: offset %d reads %d, want %d", what, u, got, h.off[u])
		}
	}
	for e := g.M; e > 0; e-- {
		if got, want := g.nbr.Peek(e-1), uint64(h.nbr[e-1]); got != want {
			t.Fatalf("%s: neighbour %d reads %d, want %d", what, e-1, got, want)
		}
	}
}

// TestDeferredCSRReadsBack loads kron, urand and relabelled inputs and
// reads every element back against the host CSR it was deferred from.
func TestDeferredCSRReadsBack(t *testing.T) {
	for _, c := range []struct {
		what string
		h    hostCSR
	}{
		{"kron-12", generate("kron", 12)},
		{"urand-12", generate("urand", 12)},
		{"kron-12 relabelled", generateRelabeled("kron", 12)},
	} {
		m := newKernelMachine(t)
		g, err := loadCSR(m, c.h)
		if err != nil {
			t.Fatal(err)
		}
		checkCSRReadsBack(t, c.what, g, c.h)
	}
}

// TestDeferredCSRConcurrent builds two pr-kron units on two goroutines,
// each on its own machine, whose neighbours both defer to the one cached
// host CSR. Under the race detector this checks that a chunk's
// generation only reads the shared CSR. Both units must count the same
// and read the CSR back whole.
func TestDeferredCSRConcurrent(t *testing.T) {
	const scale = 12
	var wg sync.WaitGroup
	res := make([]string, 2)
	graphs := make([]*CSR, 2)
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 7)
			if err != nil {
				t.Error(err)
				return
			}
			var g *CSR
			build := graphBuilder("kron", func(_ *machine.Machine, csr *CSR) (workloads.Instance, error) {
				g = csr
				return newPR(m, csr)
			})
			inst, err := build(m, scale)
			if err != nil {
				t.Error(err)
				return
			}
			inst.Run(50_000)
			c := m.Counters()
			res[i], graphs[i] = c.Format(), g
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if res[0] != res[1] {
		t.Errorf("two units of one config count differently:\n%s\n%s", res[0], res[1])
	}
	for i, g := range graphs {
		checkCSRReadsBack(t, fmt.Sprintf("unit %d", i), g, generate("kron", scale))
	}
}

// TestSSSPWeightsReadBack reads every deferred weight back, from the
// last one, against the weight stream drawn in order.
func TestSSSPWeightsReadBack(t *testing.T) {
	m := newKernelMachine(t)
	g, err := loadCSR(m, generate("kron", 10))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := newSSSP(m, g)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*sssp)
	rng := workloads.NewRNG(g.M ^ 0x555)
	want := make([]uint64, g.M)
	for e := range want {
		want[e] = rng.Intn(255) + 1
	}
	for e := g.M; e > 0; e-- {
		if got := s.weight.Peek(e - 1); got != want[e-1] {
			t.Fatalf("weight %d reads %d, want %d", e-1, got, want[e-1])
		}
	}
}
