// Package mcf implements the mcf-rand workload of the paper's Table I: a
// network-simplex-style minimum-cost-flow kernel (the SPEC CPU2006 429.mcf
// access-pattern archetype) on randomly generated networks — the "rand"
// generator the paper's authors wrote themselves.
//
// The kernel alternates a sequential arc-pricing scan with pointer-chasing
// pivots over the spanning tree's parent links, reproducing mcf's
// signature behaviour: enormous random-access node arrays behind a
// streaming arc array, and the highest TLB miss rates of any workload in
// the paper (≈20% of accesses at the largest footprints, §V-C).
package mcf

import (
	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// arcsPerNode matches the arc/node ratio of SPEC mcf instances.
const arcsPerNode = 8

// maxPivotSteps bounds the tree walk of one pivot.
const maxPivotSteps = 64

var ladder = []uint64{1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21}

// network is the guest-memory flow network.
type network struct {
	m *machine.Machine
	n uint64 // nodes
	a uint64 // arcs

	// Node arrays (random-access side).
	parent workloads.Array
	depth  workloads.Array
	pot    workloads.Array // node potentials (int64 bits)

	// Arc arrays (streaming side).
	tail workloads.Array
	head workloads.Array
	cost workloads.Array
	flow workloads.Array

	rng *workloads.RNG
}

// newNetwork generates a random instance: a random spanning tree plus
// uniform random arcs with signed costs (untimed setup).
func newNetwork(m *machine.Machine, n uint64) (*network, error) {
	nw := &network{m: m, n: n, a: arcsPerNode * n, rng: workloads.NewRNG(n ^ 0x6d6366)}
	var err error
	for _, p := range []*workloads.Array{&nw.parent, &nw.depth, &nw.pot} {
		if *p, err = workloads.NewArray(m, n); err != nil {
			return nil, err
		}
	}
	for _, p := range []*workloads.Array{&nw.tail, &nw.head, &nw.cost, &nw.flow} {
		if *p, err = workloads.NewArray(m, nw.a); err != nil {
			return nil, err
		}
	}
	// Random tree: parent[i] < i, so depths are well defined; node 0 is
	// the root, all zeros.
	workloads.FillRuns(n, func(s uint64, runs [][]uint64) {
		parent, depth, pot := runs[0], runs[1], runs[2]
		for j := range parent {
			i := s + uint64(j)
			if i == 0 {
				parent[j], depth[j], pot[j] = 0, 0, 0
				continue
			}
			p := nw.rng.Intn(i)
			var d uint64
			if p >= s {
				d = depth[p-s] // staged in this run, not yet in guest memory
			} else {
				d = nw.depth.Peek(p)
			}
			parent[j] = p
			depth[j] = d + 1
			pot[j] = nw.rng.Intn(2000)
		}
	}, nw.parent, nw.depth, nw.pot)
	// Arc i's tail, head and cost are draws 3i, 3i+1 and 3i+2 after the
	// tree, so the arcs are deferred: a unit's pricing scan reads a few
	// percent of them at most. The pivots draw after all 3a.
	arcs := *nw.rng
	nw.rng.Skip(3 * nw.a)
	workloads.DeferRuns(nw.a, func(s uint64, runs [][]uint64) {
		rng := arcs
		rng.Skip(3 * s)
		for j := range runs[0] {
			runs[0][j] = rng.Intn(n) // tail
			runs[1][j] = rng.Intn(n) // head
			runs[2][j] = rng.Intn(2000)
		}
	}, nw.tail, nw.head, nw.cost)
	return nw, nil
}

// Run performs pricing sweeps over the arc array, pivoting on candidate
// arcs until the budget expires.
func (nw *network) Run(budget uint64) {
	bud := workloads.NewBudget(nw.m, budget)
	for {
		for j := uint64(0); j < nw.a; j++ {
			t := nw.tail.Get(j)
			h := nw.head.Get(j)
			c := int64(nw.cost.Get(j))
			// Reduced cost needs two random node-array loads — the mcf
			// signature access.
			rc := c - int64(nw.pot.Get(t)) + int64(nw.pot.Get(h))
			nw.m.Ops(4)
			candidate := rc < 0
			nw.m.Branch(0x4D01, candidate)
			if candidate {
				nw.pivot(j, t, h, rc)
			}
			if j&1023 == 0 && bud.Done() {
				return
			}
		}
	}
}

// pivot walks the spanning tree from both arc endpoints towards their
// common ancestor (bounded), updating potentials along the way, then
// adjusts flow and occasionally re-hangs the tree — the simplex basis
// exchange.
func (nw *network) pivot(arc, t, h uint64, rc int64) {
	i, j := t, h
	for step := 0; step < maxPivotSteps; step++ {
		if i == j {
			break
		}
		di := nw.depth.Get(i)
		dj := nw.depth.Get(j)
		deeperI := di > dj
		nw.m.Branch(0x4D02, deeperI)
		switch {
		case deeperI:
			nw.pot.Set(i, uint64(int64(nw.pot.Get(i))-rc))
			i = nw.parent.Get(i)
		case dj > di:
			nw.pot.Set(j, uint64(int64(nw.pot.Get(j))+rc))
			j = nw.parent.Get(j)
		default:
			i = nw.parent.Get(i)
			j = nw.parent.Get(j)
		}
		nw.m.Ops(2)
	}
	nw.flow.Set(arc, nw.flow.Get(arc)+1)
	// Basis exchange: re-hang the tail under the head now and then, so
	// the tree (and future pointer chases) keeps evolving.
	rehang := nw.rng.Intn(16) == 0 && t != h && t != 0
	nw.m.Branch(0x4D03, rehang)
	if rehang {
		nw.parent.Set(t, h)
		nw.depth.Set(t, nw.depth.Get(h)+1)
	}
}

func init() {
	workloads.Register(&workloads.Spec{
		Program:   "mcf",
		Generator: "rand",
		Suite:     "spec2006",
		Kind:      "network simplex (ST)",
		Ladder:    ladder,
		Build: func(m *machine.Machine, nodes uint64) (workloads.Instance, error) {
			return newNetwork(m, nodes)
		},
	})
}
