package graph

import (
	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// sssp is single-source shortest paths over unit-ish random weights —
// the sixth GAP kernel (the paper's Table I uses five; sssp is registered
// as an extension under the gapbs-ext suite). The implementation is
// Bellman-Ford-style label correcting with a FIFO worklist, the simple
// cousin of gapbs' delta-stepping: the access texture (frontier queue +
// random dist updates + weight loads) is what matters here.
type sssp struct {
	m      *machine.Machine
	g      *CSR
	weight workloads.Array // per directed edge entry
	dist   workloads.Array
	queue  workloads.Array // circular worklist
	inQ    workloads.Array
	rng    *workloads.RNG
}

func newSSSP(m *machine.Machine, g *CSR) (workloads.Instance, error) {
	weight, err := workloads.NewArray(m, g.M)
	if err != nil {
		return nil, err
	}
	// Weight e is draw e of its stream, so the weights are deferred: a
	// unit's relaxations read a few percent of their pages.
	weights := *workloads.NewRNG(g.M ^ 0x555)
	workloads.DeferRuns(g.M, func(s uint64, runs [][]uint64) {
		rng := weights
		rng.Skip(s)
		for j := range runs[0] {
			runs[0][j] = rng.Intn(255) + 1
		}
	}, weight)
	var arrs [3]workloads.Array
	for i := range arrs {
		if arrs[i], err = workloads.NewArray(m, g.N); err != nil {
			return nil, err
		}
	}
	return &sssp{
		m: m, g: g, weight: weight,
		dist: arrs[0], queue: arrs[1], inQ: arrs[2],
		rng: workloads.NewRNG(g.N ^ 0x55501),
	}, nil
}

func (s *sssp) Run(budget uint64) {
	bud := workloads.NewBudget(s.m, budget)
	for !bud.Done() {
		s.source(bud)
	}
}

func (s *sssp) source(bud *workloads.Budget) {
	workloads.FillRuns(s.g.N, func(_ uint64, runs [][]uint64) {
		for j := range runs[0] {
			runs[0][j], runs[1][j] = inf, 0
		}
	}, s.dist, s.inQ)
	src := s.rng.Intn(s.g.N)
	s.dist.Set(src, 0)
	s.queue.Set(0, src)
	s.inQ.Set(src, 1)
	head, tail, live := uint64(0), uint64(1), uint64(1)
	for live > 0 {
		u := s.queue.Get(head % s.g.N)
		head++
		live--
		s.inQ.Set(u, 0)
		du := s.dist.Get(u)
		lo := s.g.Off(u)
		hi := s.g.Off(u + 1)
		s.m.Ops(4)
		for e := lo; e < hi; e++ {
			v := s.g.Nbr(e)
			w := s.weight.Get(e)
			nd := du + w
			dv := s.dist.Get(v)
			shorter := nd < dv
			s.m.Branch(0x555A, shorter)
			if shorter {
				s.dist.Set(v, nd)
				enqueued := s.inQ.Get(v) != 0
				s.m.Branch(0x555B, enqueued)
				if !enqueued && live < s.g.N-1 {
					s.queue.Set(tail%s.g.N, v)
					tail++
					live++
					s.inQ.Set(v, 1)
				}
			}
			s.m.Ops(1)
		}
		if head&511 == 0 && bud.Done() {
			return
		}
	}
}

func init() {
	for _, gen := range []string{"urand", "kron"} {
		workloads.Register(&workloads.Spec{
			Program:   "sssp",
			Generator: gen,
			Suite:     "gapbs-ext",
			Kind:      "graph processing (MT)",
			Ladder:    graphLadder,
			Build:     graphBuilder(gen, newSSSP),
		})
	}
}
