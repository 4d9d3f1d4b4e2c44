package main

import (
	"fmt"
	"slices"
	"time"
)

// ladder attributes the host time of a full replay of one recorded
// stream to layers, timing each layer's public calls from outside. Rung
// 0 only decodes the stream; rung i repeats rung i-1 and adds the calls
// into layers[i]. A layer's cost is its rung's time minus the rung
// below; whatever the full replay spends beyond the top rung is the
// residual no rung explains.
type ladder struct {
	layers []string
	// prepare resets state before a pass of the given rung (untimed).
	prepare func(rung int)
	// pass replays the stream up to the given rung (timed) and returns
	// the number of calls it made into layers[rung].
	pass func(rung int) uint64
	// prepareFull builds fresh state for the full replay (untimed).
	prepareFull func() error
	// full replays the stream through the whole program (timed).
	full func() error
}

// layerCost is the host time one layer adds over the rung below it,
// summed over the whole stream.
type layerCost struct {
	Name  string  `json:"name"`
	NS    float64 `json:"ns"`
	Calls uint64  `json:"calls"`
}

// perCall is the layer's host cost per call into it.
func (c layerCost) perCall() float64 {
	if c.Calls == 0 {
		return 0
	}
	return c.NS / float64(c.Calls)
}

// attribution is one stream's ladder. Every pass is deterministic work,
// so host noise only ever adds time: each rung and the full replay are
// taken at their fastest repetition.
type attribution struct {
	BaseNS     float64     `json:"base_ns"`
	Layers     []layerCost `json:"layers"`
	FullNS     float64     `json:"full_ns"`
	ResidualNS float64     `json:"residual_ns"`
	Reps       int         `json:"reps"`
}

// climb times the full replay and every rung, interleaved repetition by
// repetition so host drift lands on all of them alike, and attributes
// from the fastest repetitions. It runs at least one repetition and at
// most maxReps, starting another only while it would finish before
// until. Each rung must make the same number of calls on every
// repetition: the stream is fixed, so anything else is a bug in a pass.
func (l *ladder) climb(maxReps int, until time.Time, spans *spanLog, parent, unit int) (attribution, error) {
	rungNS := make([][]float64, len(l.layers))
	calls := make([]uint64, len(l.layers))
	var fullNS []float64
	for rep := 0; rep < maxReps; rep++ {
		repStart := time.Now()
		if err := l.prepareFull(); err != nil {
			return attribution{}, err
		}
		t0 := time.Now()
		if err := l.full(); err != nil {
			return attribution{}, err
		}
		t1 := time.Now()
		spans.add(parent, unit, "replay", t0, t1)
		fullNS = append(fullNS, float64(t1.Sub(t0)))
		for r, name := range l.layers {
			l.prepare(r)
			t0 := time.Now()
			n := l.pass(r)
			t1 := time.Now()
			spans.add(parent, unit, "ladder."+name, t0, t1)
			rungNS[r] = append(rungNS[r], float64(t1.Sub(t0)))
			if rep == 0 {
				calls[r] = n
			} else if calls[r] != n {
				return attribution{}, fmt.Errorf("ladder rung %s made %d calls, %d on the first repetition", name, n, calls[r])
			}
		}
		if time.Now().Add(time.Since(repStart)).After(until) {
			break
		}
	}

	best := make([]float64, len(l.layers))
	for r := range l.layers {
		best[r] = slices.Min(rungNS[r])
	}
	a := attribution{BaseNS: best[0], FullNS: slices.Min(fullNS), Reps: len(fullNS)}
	for r := 1; r < len(l.layers); r++ {
		a.Layers = append(a.Layers, layerCost{Name: l.layers[r], NS: best[r] - best[r-1], Calls: calls[r]})
	}
	a.ResidualNS = a.FullNS - best[len(best)-1]
	return a, nil
}

// layer returns the named layer's cost, if the ladder has that rung.
func (a *attribution) layer(name string) (layerCost, bool) {
	for _, c := range a.Layers {
		if c.Name == name {
			return c, true
		}
	}
	return layerCost{}, false
}
