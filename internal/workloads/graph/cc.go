package graph

import (
	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// cc is connected components by label propagation (the gapbs cc kernel's
// propagation structure): each round every vertex adopts the minimum label
// among itself and its neighbours, until a fixed point.
type cc struct {
	m    *machine.Machine
	g    *CSR
	comp workloads.Array
}

func newCC(m *machine.Machine, g *CSR) (workloads.Instance, error) {
	comp, err := workloads.NewArray(m, g.N)
	if err != nil {
		return nil, err
	}
	c := &cc{m: m, g: g, comp: comp}
	c.reset()
	return c, nil
}

func (c *cc) reset() {
	workloads.FillRuns(c.g.N, func(s uint64, runs [][]uint64) {
		for j := range runs[0] {
			runs[0][j] = s + uint64(j)
		}
	}, c.comp)
}

func (c *cc) Run(budget uint64) {
	bud := workloads.NewBudget(c.m, budget)
	for !bud.Done() {
		changed := false
		for u := uint64(0); u < c.g.N; u++ {
			lo := c.g.Off(u)
			hi := c.g.Off(u + 1)
			cu := c.comp.Get(u)
			best := cu
			for e := lo; e < hi; e++ {
				v := c.g.Nbr(e)
				cv := c.comp.Get(v)
				smaller := cv < best
				c.m.Branch(0xCC1, smaller)
				if smaller {
					best = cv
				}
				c.m.Ops(1)
			}
			if best != cu {
				c.comp.Set(u, best)
				changed = true
			}
			c.m.Branch(0xCC2, best != cu)
			if u&2047 == 0 && bud.Done() {
				return
			}
		}
		if !changed {
			// Fixed point: restart the computation (fresh trial), as the
			// harness loops kernel trials to fill the budget.
			c.reset()
		}
	}
}
