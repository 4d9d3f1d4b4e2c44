package graph

import (
	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// CSR is the guest-memory compressed-sparse-row graph every kernel
// traverses. Offsets and neighbours are 8-byte words in simulated memory;
// every traversal step is a retired load through the full translation
// stack.
type CSR struct {
	m *machine.Machine
	// N is the vertex count, M the directed edge-entry count.
	N, M uint64
	off  workloads.Array // N+1 entries
	nbr  workloads.Array // M entries
}

// loadCSR allocates guest arrays and pokes the host CSR's offsets into
// them (untimed setup). The neighbours are deferred: a unit's traversals
// read a few percent of a kron graph's neighbour pages, and the host CSR
// they are staged from never changes once built, and stays cached for
// the process (genCache).
func loadCSR(m *machine.Machine, h hostCSR) (*CSR, error) {
	off, err := workloads.NewArray(m, h.n+1)
	if err != nil {
		return nil, err
	}
	nbr, err := workloads.NewArray(m, uint64(len(h.nbr)))
	if err != nil {
		return nil, err
	}
	off.PokeRun(0, h.off)
	workloads.DeferRuns(uint64(len(h.nbr)), func(s uint64, runs [][]uint64) {
		for j, v := range h.nbr[s : s+uint64(len(runs[0]))] {
			runs[0][j] = uint64(v)
		}
	}, nbr)
	return &CSR{m: m, N: h.n, M: uint64(len(h.nbr)), off: off, nbr: nbr}, nil
}

// Off retires a load of the offset entry for u (call with u in [0, N]).
func (g *CSR) Off(u uint64) uint64 { return g.off.Get(u) }

// Nbr retires a load of neighbour entry e.
func (g *CSR) Nbr(e uint64) uint64 { return g.nbr.Get(e) }

// graphBuilder adapts a kernel constructor into a workloads.BuildFunc.
func graphBuilder(gen string, mk func(*machine.Machine, *CSR) (workloads.Instance, error)) workloads.BuildFunc {
	return func(m *machine.Machine, scale uint64) (workloads.Instance, error) {
		if err := checkScale(scale); err != nil {
			return nil, err
		}
		g, err := loadCSR(m, generate(gen, scale))
		if err != nil {
			return nil, err
		}
		return mk(m, g)
	}
}

// graphLadder is the scale ladder shared by all graph workloads
// (2^scale vertices, ~32*2^scale directed edge entries after
// symmetrization).
var graphLadder = []uint64{12, 13, 14, 15, 16, 17, 18, 19, 20}

func registerKernel(program string, mk func(*machine.Machine, *CSR) (workloads.Instance, error)) {
	for _, gen := range []string{"urand", "kron"} {
		workloads.Register(&workloads.Spec{
			Program:   program,
			Generator: gen,
			Suite:     "gapbs",
			Kind:      "graph processing (MT)",
			Ladder:    graphLadder,
			Build:     graphBuilder(gen, mk),
		})
	}
}

func init() {
	registerKernel("bfs", newBFS)
	registerKernel("pr", newPR)
	registerKernel("cc", newCC)
	registerKernel("bc", newBC)
	// tc runs on the degree-relabelled graph (the gapbs optimization the
	// paper credits for tc-kron's graceful scaling).
	for _, gen := range []string{"urand", "kron"} {
		gen := gen
		workloads.Register(&workloads.Spec{
			Program:   "tc",
			Generator: gen,
			Suite:     "gapbs",
			Kind:      "graph processing (MT)",
			Ladder:    graphLadder,
			Build: func(m *machine.Machine, scale uint64) (workloads.Instance, error) {
				if err := checkScale(scale); err != nil {
					return nil, err
				}
				g, err := loadCSR(m, generateRelabeled(gen, scale))
				if err != nil {
					return nil, err
				}
				return newTC(m, g)
			},
		})
	}
}
