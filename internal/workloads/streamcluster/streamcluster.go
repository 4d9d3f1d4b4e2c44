// Package streamcluster implements the streamcluster-rand workload of the
// paper's Table I: PARSEC's streaming k-median clustering kernel on
// uniformly random points.
//
// The access pattern is scan-dominant — points stream past a small, hot
// set of centers — with occasional random-access gain evaluations against
// previously seen points. The paper finds this workload's AT overhead
// essentially uncorrelated with footprint (Table IV: adj. R² = 0.122);
// the same structure produces that noise here.
package streamcluster

import (
	"math"

	"atscale/internal/machine"
	"atscale/internal/workloads"
)

const (
	// dim is the point dimensionality in 8-byte words.
	dim = 16
	// maxCenters bounds the facility set.
	maxCenters = 8
	// gainSamples is how many random points a gain evaluation touches.
	gainSamples = 4
	// gainProbability is the chance a streamed point triggers a gain
	// evaluation.
	gainProbability = 0.05
)

var ladder = []uint64{1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21, 1 << 22}

// cluster is the guest-memory clustering state.
type cluster struct {
	m       *machine.Machine
	npoints uint64

	points  workloads.Array // npoints * dim float64 bits
	centers workloads.Array // maxCenters * dim float64 bits
	ncent   uint64
	thresh  float64

	rng *workloads.RNG
}

func newCluster(m *machine.Machine, npoints uint64) (*cluster, error) {
	c := &cluster{m: m, npoints: npoints, rng: workloads.NewRNG(npoints ^ 0x7363)}
	var err error
	if c.points, err = workloads.NewArray(m, npoints*dim); err != nil {
		return nil, err
	}
	if c.centers, err = workloads.NewArray(m, maxCenters*dim); err != nil {
		return nil, err
	}
	// Word i of the points is draw i of the stream, so the points are
	// deferred: a unit's stream and gain samples read a few percent of
	// their pages. Run draws on from after the last point.
	points := *c.rng
	c.rng.Skip(npoints * dim)
	workloads.DeferRuns(npoints*dim, func(s uint64, runs [][]uint64) {
		rng := points
		rng.Skip(s)
		for j := range runs[0] {
			runs[0][j] = math.Float64bits(rng.Float64())
		}
	}, c.points)
	// Seed the first center with point 0.
	for d := uint64(0); d < dim; d++ {
		c.centers.Poke(d, c.points.Peek(d))
	}
	c.ncent = 1
	c.thresh = float64(dim) / 8
	return c, nil
}

// dist2 computes the squared distance between streamed point p and center
// k (timed loads of both).
func (c *cluster) dist2(p, k uint64) float64 {
	var s float64
	for d := uint64(0); d < dim; d++ {
		x := math.Float64frombits(c.points.Get(p*dim + d))
		y := math.Float64frombits(c.centers.Get(k*dim + d))
		s += (x - y) * (x - y)
		c.m.Ops(3)
	}
	return s
}

// Run streams points past the centers, opening facilities and sampling
// gains, wrapping around the point set until the budget expires.
func (c *cluster) Run(budget uint64) {
	bud := workloads.NewBudget(c.m, budget)
	for p := uint64(0); ; p = (p + 1) % c.npoints {
		best := math.Inf(1)
		for k := uint64(0); k < c.ncent; k++ {
			if d := c.dist2(p, k); d < best {
				best = d
			}
			c.m.Ops(1)
		}
		// Facility opening: far points may become centers.
		open := best > c.thresh && c.ncent < maxCenters
		c.m.Branch(0x5C01, open)
		if open {
			for d := uint64(0); d < dim; d++ {
				c.centers.Set(c.ncent*dim+d, c.points.Get(p*dim+d))
			}
			c.ncent++
		} else if best > c.thresh {
			// Facility set full: re-seed a random center (the kernel's
			// periodic re-clustering), keeping center churn alive.
			k := c.rng.Intn(maxCenters)
			for d := uint64(0); d < dim; d++ {
				c.centers.Set(k*dim+d, c.points.Get(p*dim+d))
			}
			c.thresh *= 1.05
		}
		// Gain evaluation: compare against random previously seen points.
		if c.rng.Float64() < gainProbability {
			for s := 0; s < gainSamples; s++ {
				q := c.rng.Intn(c.npoints)
				var acc float64
				for d := uint64(0); d < dim; d += 4 { // strided sample of q
					acc += math.Float64frombits(c.points.Get(q*dim + d))
					c.m.Ops(2)
				}
				c.m.Branch(0x5C02, acc > float64(dim)/8)
			}
		}
		c.m.Ops(4)
		if p&127 == 0 && bud.Done() {
			return
		}
	}
}

func init() {
	workloads.Register(&workloads.Spec{
		Program:   "streamcluster",
		Generator: "rand",
		Suite:     "parsec",
		Kind:      "clustering (MT)",
		Ladder:    ladder,
		Build: func(m *machine.Machine, npoints uint64) (workloads.Instance, error) {
			return newCluster(m, npoints)
		},
	})
}
