package micro

import (
	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// hashjoin is the no-partitioning hash join kernel of the in-memory
// database literature: build a chained hash table over relation R, then
// stream relation S and probe — a sequential scan interleaved with random
// table accesses, the canonical mixed AT pattern. Ladder parameter: build
// tuples |R| (|S| = 4|R|).

// probeFactor sizes the probe relation relative to the build relation.
const probeFactor = 4

// matchShare is the fraction of probe keys drawn from R (join hit rate).
const matchShare = 0.5

type hashjoin struct {
	m *machine.Machine

	// Build side: bucket heads + chained entries.
	buckets workloads.Array // |R| entries: entry index+1 or 0
	keys    workloads.Array // per entry: key
	payload workloads.Array // per entry: payload
	next    workloads.Array // per entry: chain link

	// Probe side: a flat relation streamed in order.
	probeKeys workloads.Array

	nbuild uint64

	// matches counts joined tuples (telemetry / correctness hook).
	matches uint64
}

var hashjoinLadder = []uint64{1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21, 1 << 22}

func newHashJoin(m *machine.Machine, nbuild uint64) (workloads.Instance, error) {
	h := &hashjoin{m: m, nbuild: nbuild}
	var err error
	if h.buckets, err = workloads.NewArray(m, nbuild); err != nil {
		return nil, err
	}
	if h.keys, err = workloads.NewArray(m, nbuild); err != nil {
		return nil, err
	}
	if h.payload, err = workloads.NewArray(m, nbuild); err != nil {
		return nil, err
	}
	if h.next, err = workloads.NewArray(m, nbuild); err != nil {
		return nil, err
	}
	if h.probeKeys, err = workloads.NewArray(m, probeFactor*nbuild); err != nil {
		return nil, err
	}
	// Build phase (untimed setup; the timed kernel is the probe loop, as
	// in the join microbenchmark literature). R keys are dense-random.
	rng := workloads.NewRNG(nbuild ^ 0x4a014a)
	buildKeys := make([]uint64, nbuild)
	for i := uint64(0); i < nbuild; i++ {
		k := rng.Next()
		buildKeys[i] = k
		b := h.hash(k)
		h.keys.Poke(i, k)
		h.payload.Poke(i, k^0x77)
		h.next.Poke(i, h.buckets.Peek(b))
		h.buckets.Poke(b, i+1)
	}
	// Probe key i takes draws 2i and 2i+1 after the build keys, so the
	// probe keys are deferred: a unit's probe stream reads a few percent
	// of their pages. The stage keeps buildKeys alive.
	probes := *rng
	workloads.DeferRuns(probeFactor*nbuild, func(s uint64, runs [][]uint64) {
		rng := probes
		rng.Skip(2 * s)
		for j := range runs[0] {
			if rng.Float64() < matchShare {
				runs[0][j] = buildKeys[rng.Intn(nbuild)]
			} else {
				runs[0][j] = rng.Next() | 1<<63 // guaranteed miss half
			}
		}
	}, h.probeKeys)
	return h, nil
}

func (h *hashjoin) hash(k uint64) uint64 {
	k ^= k >> 31
	k *= 0x7FB5D329728EA185
	k ^= k >> 27
	return k % h.nbuild
}

func (h *hashjoin) Run(budget uint64) {
	bud := workloads.NewBudget(h.m, budget)
	n := h.probeKeys.Len()
	for start := uint64(0); ; start++ {
		for i := uint64(0); i < n; i++ {
			k := h.probeKeys.Get(i) // sequential stream
			h.m.Ops(4)              // hash arithmetic
			idx := h.buckets.Get(h.hash(k))
			for idx != 0 {
				match := h.keys.Get(idx-1) == k
				h.m.Branch(0x4A01, match)
				if match {
					h.matches += h.payload.Get(idx-1) & 1
					h.matches++
					break
				}
				idx = h.next.Get(idx - 1)
			}
			if i&511 == 0 && bud.Done() {
				return
			}
		}
	}
}

func init() {
	workloads.Register(&workloads.Spec{
		Program:   "hashjoin",
		Generator: "rand",
		Suite:     "micro",
		Kind:      "hash join (ST)",
		Ladder:    hashjoinLadder,
		Build: func(m *machine.Machine, nbuild uint64) (workloads.Instance, error) {
			return newHashJoin(m, nbuild)
		},
	})
}
