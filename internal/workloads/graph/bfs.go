package graph

import (
	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// inf marks an unvisited vertex.
const inf = ^uint64(0)

// bfs is top-down breadth-first search from random sources (the gapbs bfs
// kernel's top-down phase; sources re-drawn per trial as gapbs does).
type bfs struct {
	m     *machine.Machine
	g     *CSR
	dist  workloads.Array
	queue workloads.Array
	rng   *workloads.RNG
}

func newBFS(m *machine.Machine, g *CSR) (workloads.Instance, error) {
	dist, err := workloads.NewArray(m, g.N)
	if err != nil {
		return nil, err
	}
	queue, err := workloads.NewArray(m, g.N)
	if err != nil {
		return nil, err
	}
	return &bfs{m: m, g: g, dist: dist, queue: queue, rng: workloads.NewRNG(g.N)}, nil
}

func (b *bfs) Run(budget uint64) {
	bud := workloads.NewBudget(b.m, budget)
	for !bud.Done() {
		b.trial(bud)
	}
}

// trial runs one BFS from a random source, stopping early if the budget
// expires.
func (b *bfs) trial(bud *workloads.Budget) {
	// Inter-trial reset is untimed, like the resets between gapbs trials.
	workloads.FillRuns(b.g.N, func(_ uint64, runs [][]uint64) {
		for j := range runs[0] {
			runs[0][j] = inf
		}
	}, b.dist)
	src := b.rng.Intn(b.g.N)
	b.dist.Set(src, 0)
	b.queue.Set(0, src)
	head, tail := uint64(0), uint64(1)
	for head < tail {
		u := b.queue.Get(head)
		head++
		du := b.dist.Get(u)
		lo := b.g.Off(u)
		hi := b.g.Off(u + 1)
		b.m.Ops(3) // index arithmetic, loop setup
		for e := lo; e < hi; e++ {
			v := b.g.Nbr(e)
			d := b.dist.Get(v)
			unvisited := d == inf
			b.m.Branch(0xBF5, unvisited)
			if unvisited {
				b.dist.Set(v, du+1)
				b.queue.Set(tail, v)
				tail++
			}
			b.m.Ops(1)
		}
		if head&1023 == 0 && bud.Done() {
			return
		}
	}
}
