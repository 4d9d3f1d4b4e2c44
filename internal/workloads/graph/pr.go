package graph

import (
	"math"

	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// prDamping is the standard PageRank damping factor.
const prDamping = 0.85

// pr is pull-style PageRank (the gapbs pr kernel): each iteration gathers
// rank/degree contributions from every vertex's neighbours into a fresh
// rank vector, then the vectors swap (Jacobi iteration).
//
// Contributions are computed on the fly (rank and degree loads per edge)
// rather than via a precomputed contribution pass: the gather is the
// memory-bound heart of PageRank, and a budget-truncated run must sample
// it rather than the sequential prologue.
type pr struct {
	m    *machine.Machine
	g    *CSR
	rank workloads.Array // float64 bits, current iteration's input
	next workloads.Array // float64 bits, being produced
}

func newPR(m *machine.Machine, g *CSR) (workloads.Instance, error) {
	rank, err := workloads.NewArray(m, g.N)
	if err != nil {
		return nil, err
	}
	next, err := workloads.NewArray(m, g.N)
	if err != nil {
		return nil, err
	}
	init := math.Float64bits(1 / float64(g.N))
	workloads.FillRuns(g.N, func(_ uint64, runs [][]uint64) {
		for j := range runs[0] {
			runs[0][j] = init
		}
	}, rank)
	return &pr{m: m, g: g, rank: rank, next: next}, nil
}

func (p *pr) Run(budget uint64) {
	bud := workloads.NewBudget(p.m, budget)
	base := (1 - prDamping) / float64(p.g.N)
	for {
		for v := uint64(0); v < p.g.N; v++ {
			lo := p.g.Off(v)
			hi := p.g.Off(v + 1)
			sum := 0.0
			for e := lo; e < hi; e++ {
				u := p.g.Nbr(e)
				ru := math.Float64frombits(p.rank.Get(u))
				du := p.g.Off(u+1) - p.g.Off(u)
				if du == 0 {
					du = 1
				}
				sum += ru / float64(du)
				p.m.Ops(3)
			}
			p.m.Branch(0xF12, hi > lo)
			p.next.Set(v, math.Float64bits(base+prDamping*sum))
			if v&255 == 0 && bud.Done() {
				return
			}
		}
		// Jacobi swap: the produced vector becomes the next input.
		p.rank, p.next = p.next, p.rank
	}
}
