// Package graph implements the GAP benchmark suite slice of the paper's
// workload table: the bc, bfs, cc, pr and tc kernels driven by the urand
// (uniform random) and kron (Kronecker/R-MAT) input generators, all
// executing against simulated guest memory.
package graph

import (
	"fmt"
	"math"
	"sync"

	"atscale/internal/workloads"
)

// degree is the average degree of generated graphs (gapbs' -d default).
const degree = 16

// kron initiator matrix probabilities (Graph500 / gapbs defaults).
const (
	kronA = 0.57
	kronB = 0.19
	kronC = 0.19
)

// genURand generates 2^scale vertices with degree*2^scale uniform random
// edges, the gapbs "-u" generator. The result is a flat list of endpoint
// pairs: edge i is (pairs[2i], pairs[2i+1]).
func genURand(scale uint64, rng *workloads.RNG) []uint32 {
	n := uint64(1) << scale
	pairs := make([]uint32, 2*degree*n)
	for i := range pairs {
		pairs[i] = uint32(rng.Intn(n))
	}
	return pairs
}

// genKron generates an R-MAT/Kronecker graph (the gapbs "-g" generator):
// each edge recursively descends the 2x2 initiator matrix, yielding a
// skewed, scale-free degree distribution. It returns endpoint pairs like
// genURand.
//
// Per bit, one draw picks a quadrant against the initiator's cumulative
// thresholds, compared as integers (see below): the u bit is set at or
// above kronA+kronB, and the v bit in the B and D quadrants, which is
// the parity of the three thresholds reached.
func genKron(scale uint64, rng *workloads.RNG) []uint32 {
	tA, tAB, tABC := below(kronA), below(kronA+kronB), below(kronA+kronB+kronC)
	// lt is 1 when k < t and 0 otherwise, for k and t below 2^53.
	lt := func(k, t uint64) uint32 { return uint32((k - t) >> 63) }
	n := uint64(1) << scale
	pairs := make([]uint32, 2*degree*n)
	for i := 0; i < len(pairs); i += 2 {
		var u, v uint32
		for bit := uint64(0); bit < scale; bit++ {
			k := rng.Next() >> 11
			a, ab, abc := lt(k, tA), lt(k, tAB), lt(k, tABC)
			u |= (ab ^ 1) << bit
			v |= (a ^ ab ^ abc ^ 1) << bit
		}
		pairs[i], pairs[i+1] = u, v
	}
	return pairs
}

// below returns the integer threshold for an R-MAT quadrant boundary t:
// RNG.Float64 is k/2^53 with k = Next()>>11, and k/2^53 < t exactly when
// k < ceil(t*2^53). Scaling by a power of two is exact.
func below(t float64) uint64 { return uint64(math.Ceil(t * (1 << 53))) }

// hostCSR is the host-side CSR built during setup, before the graph is
// poked into guest memory.
type hostCSR struct {
	n   uint64
	off []uint64 // n+1
	nbr []uint32 // off[n]
}

// buildHostCSR symmetrizes the endpoint pairs (gapbs treats these graphs
// as undirected), drops self-loops, sorts each adjacency list, and
// removes duplicate edges. It consumes pairs: the result's neighbours
// live in its buffer.
//
// No comparison sort is needed. The symmetrized multigraph is its own
// transpose, so scattering the unsorted rows by ascending source lists
// each vertex's neighbours in ascending order.
func buildHostCSR(n uint64, pairs []uint32) hostCSR {
	off := make([]uint64, n+1)
	for i := 0; i+1 < len(pairs); i += 2 {
		if u, v := pairs[i], pairs[i+1]; u != v {
			off[u+1]++
			off[v+1]++
		}
	}
	for i := uint64(1); i <= n; i++ {
		off[i] += off[i-1]
	}
	rows := make([]uint32, off[n])
	pos := make([]uint64, n)
	copy(pos, off)
	for i := 0; i+1 < len(pairs); i += 2 {
		if u, v := pairs[i], pairs[i+1]; u != v {
			rows[pos[u]] = v
			pos[u]++
			rows[pos[v]] = u
			pos[v]++
		}
	}
	// The pairs are dead: the sorted rows take their buffer.
	nbr := pairs[:off[n]]
	copy(pos, off)
	for u := uint64(0); u < n; u++ {
		for _, v := range rows[off[u]:off[u+1]] {
			nbr[pos[v]] = uint32(u)
			pos[v]++
		}
	}
	// Dedupe each sorted row in place, compacting off as it goes.
	w, lo := uint64(0), uint64(0)
	for u := uint64(0); u < n; u++ {
		hi := off[u+1]
		off[u] = w
		for e := lo; e < hi; e++ {
			if e == lo || nbr[e] != nbr[e-1] {
				nbr[w] = nbr[e]
				w++
			}
		}
		lo = hi
	}
	off[n] = w
	return hostCSR{n: n, off: off, nbr: nbr[:w]}
}

// relabelByDegree returns a copy of g with vertices renumbered by
// descending degree, ties by ascending ID — the gapbs triangle-counting
// optimization the paper credits for tc-kron's graceful scaling (§V-A).
// The order is a counting sort on degree, and the rows are a scatter of
// g in new-ID order, which leaves each one sorted as buildHostCSR does.
func (g hostCSR) relabelByDegree() hostCSR {
	deg := func(u uint64) uint64 { return g.off[u+1] - g.off[u] }
	var maxDeg uint64
	for u := uint64(0); u < g.n; u++ {
		maxDeg = max(maxDeg, deg(u))
	}
	// first[d] is the first new ID of a degree-d vertex.
	first := make([]uint64, maxDeg+1)
	for u := uint64(0); u < g.n; u++ {
		first[deg(u)]++
	}
	var sum uint64
	for d := maxDeg + 1; d > 0; d-- {
		c := first[d-1]
		first[d-1] = sum
		sum += c
	}
	newID := make([]uint32, g.n)
	order := make([]uint32, g.n)
	for u := uint64(0); u < g.n; u++ {
		id := first[deg(u)]
		first[deg(u)]++
		newID[u], order[id] = uint32(id), uint32(u)
	}
	out := hostCSR{n: g.n, off: make([]uint64, g.n+1), nbr: make([]uint32, len(g.nbr))}
	for id, old := range order {
		out.off[id+1] = out.off[id] + deg(uint64(old))
	}
	for id, old := range order {
		for _, v := range g.nbr[g.off[old]:g.off[old+1]] {
			out.nbr[out.off[newID[v]]] = uint32(id)
			out.off[newID[v]]++
		}
	}
	// Each row's cursor stopped at the next row's start.
	copy(out.off[1:], out.off[:g.n])
	out.off[0] = 0
	return out
}

// genCache memoizes host CSRs: the overhead methodology rebuilds the same
// instance for the 4 KB, 2 MB and 1 GB runs, several kernels share each
// generated graph, and regeneration dominates setup time at large scales.
// Total cache size across both generators and all ladder scales is a few
// hundred megabytes of host memory.
//
// Concurrent run units (the core campaign scheduler builds instances from
// many goroutines) coalesce per key: the first requester generates, later
// ones wait on its entry and share the finished CSR, which is immutable
// once built.
var (
	genMu    sync.Mutex
	genCache = map[string]*genEntry{}
)

type genEntry struct {
	once sync.Once
	h    hostCSR
}

// cached returns the memoized CSR for key, building it at most once even
// under concurrent callers.
func cached(key string, build func() hostCSR) hostCSR {
	genMu.Lock()
	e, ok := genCache[key]
	if !ok {
		e = &genEntry{}
		genCache[key] = e
	}
	genMu.Unlock()
	e.once.Do(func() { e.h = build() })
	return e.h
}

// generate builds the host CSR for a generator name and scale,
// deterministically per (generator, scale).
func generate(gen string, scale uint64) hostCSR {
	return cached(fmt.Sprintf("%s-%d", gen, scale), func() hostCSR {
		return generateUncached(gen, scale)
	})
}

// generateRelabeled is generate followed by the degree relabel (tc's
// input), cached separately.
func generateRelabeled(gen string, scale uint64) hostCSR {
	return cached(fmt.Sprintf("%s-%d-relabel", gen, scale), func() hostCSR {
		return generate(gen, scale).relabelByDegree()
	})
}

func generateUncached(gen string, scale uint64) hostCSR {
	rng := workloads.NewRNG(scale*1315423911 + uint64(len(gen)))
	var pairs []uint32
	switch gen {
	case "urand":
		pairs = genURand(scale, rng)
	case "kron":
		pairs = genKron(scale, rng)
	default:
		panic("graph: unknown generator " + gen)
	}
	return buildHostCSR(uint64(1)<<scale, pairs)
}
