// Package micro implements the classic address-translation
// microbenchmarks of the virtual-memory literature the paper builds on:
// GUPS-style random table updates, B+tree index probes, and hash join.
// They are not part of the paper's Table I, but they are the standard
// stress kernels papers like Midgard, Mosaic Pages and prefetched address
// translation evaluate against — useful extra points for the scaling
// analyses.
package micro

import (
	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// gups is the HPCC RandomAccess kernel: read-modify-write updates at
// pseudo-random table locations. Ladder parameter: log2 of table bytes.
type gups struct {
	m     *machine.Machine
	table workloads.Array
	x     uint64 // xorshift state (the benchmark's own generator)
}

var gupsLadder = []uint64{20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30}

func newGUPS(m *machine.Machine, logBytes uint64) (workloads.Instance, error) {
	words := (uint64(1) << logBytes) / 8
	table, err := workloads.NewArray(m, words)
	if err != nil {
		return nil, err
	}
	// HPCC initializes table[i] = i (untimed here, as in the timed-kernel
	// methodology).
	workloads.FillRuns(words, func(s uint64, runs [][]uint64) {
		for j := range runs[0] {
			runs[0][j] = s + uint64(j)
		}
	}, table)
	return &gups{m: m, table: table, x: 0x2545F4914F6CDD1D}, nil
}

func (g *gups) next() uint64 {
	g.x ^= g.x << 13
	g.x ^= g.x >> 7
	g.x ^= g.x << 17
	return g.x
}

func (g *gups) Run(budget uint64) {
	bud := workloads.NewBudget(g.m, budget)
	words := g.table.Len()
	for i := uint64(0); ; i++ {
		r := g.next()
		idx := r % words
		g.table.Set(idx, g.table.Get(idx)^r)
		g.m.Ops(3)
		if i&63 == 0 {
			// The verification branch of the reference implementation.
			g.m.Branch(0x6755, r&0x80 != 0)
		}
		if i&511 == 0 && bud.Done() {
			return
		}
	}
}

func init() {
	workloads.Register(&workloads.Spec{
		Program:   "gups",
		Generator: "rand",
		Suite:     "micro",
		Kind:      "random update (ST)",
		Ladder:    gupsLadder,
		Build: func(m *machine.Machine, logBytes uint64) (workloads.Instance, error) {
			return newGUPS(m, logBytes)
		},
	})
}
