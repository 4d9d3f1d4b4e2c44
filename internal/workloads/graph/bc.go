package graph

import (
	"math"

	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// bc is Brandes betweenness centrality (the gapbs bc kernel): a forward
// BFS counting shortest paths (sigma), then a reverse sweep over the BFS
// order accumulating dependencies (delta).
type bc struct {
	m     *machine.Machine
	g     *CSR
	dist  workloads.Array
	sigma workloads.Array
	delta workloads.Array // float64 bits
	queue workloads.Array
	score workloads.Array // float64 bits
	rng   *workloads.RNG
}

func newBC(m *machine.Machine, g *CSR) (workloads.Instance, error) {
	var arrs [5]workloads.Array
	for i := range arrs {
		a, err := workloads.NewArray(m, g.N)
		if err != nil {
			return nil, err
		}
		arrs[i] = a
	}
	return &bc{
		m: m, g: g,
		dist: arrs[0], sigma: arrs[1], delta: arrs[2], queue: arrs[3], score: arrs[4],
		rng: workloads.NewRNG(g.N ^ 0xBC),
	}, nil
}

func (b *bc) Run(budget uint64) {
	bud := workloads.NewBudget(b.m, budget)
	for !bud.Done() {
		b.source(bud)
	}
}

// source processes one betweenness source: forward sigma-counting BFS,
// then the reverse dependency accumulation.
func (b *bc) source(bud *workloads.Budget) {
	// Per-source reset is untimed (between-trial state clearing).
	workloads.FillRuns(b.g.N, func(_ uint64, runs [][]uint64) {
		for j := range runs[0] {
			runs[0][j], runs[1][j], runs[2][j] = inf, 0, 0
		}
	}, b.dist, b.sigma, b.delta)
	src := b.rng.Intn(b.g.N)
	b.dist.Set(src, 0)
	b.sigma.Set(src, 1)
	b.queue.Set(0, src)
	head, tail := uint64(0), uint64(1)

	// Forward phase.
	for head < tail {
		u := b.queue.Get(head)
		head++
		du := b.dist.Get(u)
		su := b.sigma.Get(u)
		lo := b.g.Off(u)
		hi := b.g.Off(u + 1)
		b.m.Ops(3)
		for e := lo; e < hi; e++ {
			v := b.g.Nbr(e)
			dv := b.dist.Get(v)
			unvisited := dv == inf
			b.m.Branch(0xBC1, unvisited)
			if unvisited {
				dv = du + 1
				b.dist.Set(v, dv)
				b.queue.Set(tail, v)
				tail++
			}
			onPath := dv == du+1
			b.m.Branch(0xBC2, onPath)
			if onPath {
				b.sigma.Set(v, b.sigma.Get(v)+su)
			}
			b.m.Ops(1)
		}
		if head&1023 == 0 && bud.Done() {
			return
		}
	}

	// Reverse phase: accumulate dependencies in reverse BFS order.
	for i := tail; i > 0; i-- {
		u := b.queue.Get(i - 1)
		du := b.dist.Get(u)
		su := float64(b.sigma.Get(u))
		acc := 0.0
		lo := b.g.Off(u)
		hi := b.g.Off(u + 1)
		b.m.Ops(3)
		for e := lo; e < hi; e++ {
			v := b.g.Nbr(e)
			dv := b.dist.Get(v)
			succ := dv == du+1
			b.m.Branch(0xBC3, succ)
			if succ {
				sv := float64(b.sigma.Get(v))
				dl := math.Float64frombits(b.delta.Get(v))
				acc += su / sv * (1 + dl)
				b.m.Ops(3)
			}
		}
		b.delta.Set(u, math.Float64bits(acc))
		old := math.Float64frombits(b.score.Get(u))
		b.score.Set(u, math.Float64bits(old+acc))
		if i&1023 == 0 && bud.Done() {
			return
		}
	}
}
