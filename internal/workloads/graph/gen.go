// Package graph implements the GAP benchmark suite slice of the paper's
// workload table: the bc, bfs, cc, pr and tc kernels driven by the urand
// (uniform random) and kron (Kronecker/R-MAT) input generators, all
// executing against simulated guest memory.
package graph

import (
	"fmt"
	"slices"
	"sync"

	"atscale/internal/mem"
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

// maxScale is the largest scale a graph input is built at. Scale 27's
// 2·degree<<27 endpoint slots reach 2^32, beyond buildHostCSR's uint32
// cursors, and its pair buffer alone would take 16 GiB.
const maxScale = 26

// checkScale rejects a scale beyond maxScale. Every entry point that
// builds an input calls it before allocating anything: the scale comes
// from outside the program (the CLIs' -param and atgen's -scale).
func checkScale(scale uint64) error {
	if scale > maxScale {
		return fmt.Errorf("graph: scale %d is beyond the largest buildable graph, scale %d", scale, maxScale)
	}
	return nil
}

// scratch returns a zeroed array of n words that a build needs only
// until one of its steps is done, and the function that frees it. Arrays
// of a huge page or more are mapped outside the Go heap
// (mem.MapScratch), so their pages leave the resident set when freed,
// where dead heap stays resident until a collection frees it and the
// scavenger returns its pages. Tests swap it to count what a build frees.
var scratch = mem.MapScratch[uint32]

// inHalves runs the two halves of one build step, step(s, 0) and
// step(s, 1), concurrently and returns once both are done. Every step of
// a graph input's build is split this way, always in two: each half
// writes only its own part of the step's output, so the input is
// bit-identical to a one-goroutine build however the halves interleave,
// and under GOMAXPROCS=1 they simply run one after the other.
//
// A step reaches its data only through s, the build's state, which
// embeds halves: the step is then a static function, and a call
// allocates nothing but the second half's goroutine closure.
func inHalves[S interface{ group() *sync.WaitGroup }](s S, step func(s S, h int)) {
	if halvesInSequence != nil {
		for _, h := range halvesInSequence {
			step(s, h)
		}
		return
	}
	wg := s.group()
	wg.Add(1)
	go func() {
		defer wg.Done()
		step(s, 1)
	}()
	step(s, 0)
	wg.Wait()
}

// halves is embedded in a build's state to give inHalves its wait group.
type halves struct{ wg sync.WaitGroup }

func (hv *halves) group() *sync.WaitGroup { return &hv.wg }

// halvesInSequence, when a test sets it, makes inHalves run the halves
// one after the other in the order it lists instead.
var halvesInSequence []int

// split returns half h of [0, n): [0, n/2) for h 0, [n/2, n) for h 1.
func split(n, h int) (lo, hi int) {
	if h == 0 {
		return 0, n / 2
	}
	return n / 2, n
}

// genState is a generator's build state: the stream's start and the
// endpoint pairs being drawn.
type genState struct {
	halves
	scale uint64
	rng   workloads.RNG
	pairs []uint32
}

// generateHalves allocates degree*2^scale endpoint pairs and fills them
// with step, run in halves.
func generateHalves(scale uint64, rng workloads.RNG, step func(s *genState, h int)) []uint32 {
	s := &genState{scale: scale, rng: rng, pairs: make([]uint32, 2*degree<<scale)}
	inHalves(s, step)
	return s.pairs
}

// genURand generates 2^scale vertices with degree*2^scale uniform random
// edges, the gapbs "-u" generator, from the stream that starts at rng.
// The result is a flat list of endpoint pairs: edge i is (pairs[2i],
// pairs[2i+1]). Each endpoint takes one draw, so the second half starts
// its copy of the stream len/2 draws in.
func genURand(scale uint64, rng workloads.RNG) []uint32 {
	return generateHalves(scale, rng, func(s *genState, h int) {
		n, pairs := uint64(1)<<s.scale, s.pairs
		lo, hi := split(len(pairs), h)
		r := s.rng
		r.Skip(uint64(lo))
		for i := lo; i < hi; i++ {
			pairs[i] = uint32(r.Intn(n))
		}
	})
}

// genKron generates an R-MAT/Kronecker graph (the gapbs "-g" generator):
// each edge recursively descends the 2x2 initiator matrix, yielding a
// skewed, scale-free degree distribution. It returns endpoint pairs like
// genURand. Each edge takes scale draws, so the second half starts its
// copy of the stream at edge E/2, E/2·scale draws in.
func genKron(scale uint64, rng workloads.RNG) []uint32 {
	return generateHalves(scale, rng, func(s *genState, h int) {
		lo, hi := split(len(s.pairs)/2, h)
		r := s.rng
		r.Skip(uint64(lo) * s.scale)
		kronEdges(s.pairs[2*lo:2*hi], s.scale, &r)
	})
}

// kronEdges fills pairs with whole R-MAT edges drawn from rng, scale
// draws per edge, and leaves rng past the last draw.
//
// Per bit, one draw picks a quadrant: the number of the initiator's
// cumulative thresholds the draw lies at or above is the quadrant q, 0
// for A up to 3 for D, whose high bit is the u bit and whose low bit is
// the v bit. Bit b's q lands in bits 2b and 2b+1 of one word, whose odd
// and even bits then give the edge's u and v. The loop draws with
// RNG.Draw from a local copy of rng and compares against constant
// thresholds, so the stream state, the word and the thresholds stay in
// registers; Next would store the state on every draw, and thresholds
// held in variables leave too few registers for the loop.
func kronEdges(pairs []uint32, scale uint64, rng *workloads.RNG) {
	if scale > 32 {
		panic(fmt.Sprintf("graph: kron scale %d needs vertex IDs wider than 32 bits", scale))
	}
	// lt is 1 when k < t and 0 otherwise, for k and t below 2^53.
	lt := func(k, t uint64) uint64 { return (k - t) >> 63 }
	r := *rng
	for i := 0; i+1 < len(pairs); i += 2 {
		var z uint64
		for bit := uint64(0); bit < 2*scale; bit += 2 {
			var k uint64
			r, k = r.Draw()
			k >>= 11
			z |= (3 - lt(k, kronTA) - lt(k, kronTAB) - lt(k, kronTABC)) << bit
		}
		pairs[i], pairs[i+1] = evenBits(z>>1), evenBits(z)
	}
	*rng = r
}

// kronTA, kronTAB and kronTABC are the initiator's cumulative quadrant
// thresholds kronA, kronA+kronB and kronA+kronB+kronC as integers:
// RNG.Float64 is k/2^53 with k = Next()>>11, and k/2^53 < t exactly when
// k < ceil(t·2^53) (TestKronThresholds).
const kronTA, kronTAB, kronTABC = 5134103575202365, 6845471433603154, 8556839292003942

// evenBits packs bits 0, 2, ..., 62 of x into a 32-bit word, bit 2i to
// bit i (a Morton decode).
func evenBits(x uint64) uint32 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	x = (x | x>>16) & 0x00000000FFFFFFFF
	return uint32(x)
}

// hostCSR is the host-side CSR built during setup, before the graph is
// poked into guest memory.
type hostCSR struct {
	n   uint64
	off []uint64 // n+1
	nbr []uint32 // off[n]
}

// csrState is buildHostCSR's build state.
type csrState struct {
	halves
	n     uint64
	pairs []uint32 // the input; the result's nbr once the rows are scattered
	off   []uint64
	rows  []uint32 // the unsorted rows
	// fwd and bwd are the two halves' per-vertex counts, then their
	// cursors: fwd moves forward from each row's start, bwd backward
	// from its end.
	fwd, bwd []uint32
	mid      uint64 // the first vertex of the second half
	start    uint64 // off[mid] before the dedupe
}

// buildHostCSR symmetrizes the endpoint pairs (gapbs treats these graphs
// as undirected), drops self-loops, sorts each adjacency list, and
// removes duplicate edges. It consumes pairs: the result's neighbours
// live in its buffer. A trailing odd slot is ignored.
//
// No comparison sort is needed. The symmetrized multigraph is its own
// transpose, so scattering the unsorted rows by ascending source lists
// each vertex's neighbours in ascending order.
//
// Each step runs in two halves. In both scatters the first half fills
// every row forward from its start, and the second walks its part of
// the input in reverse and fills every row backward from its end, so
// the two meet exactly where a serial scatter's one cursor would have
// passed. The row scatter splits the pairs in two. The transpose and the
// dedupe split the vertices where off reaches half the entries, not at
// n/2, because kron degrees are skewed toward low IDs. The cursors are
// uint32, so an input must stay below 2^32 endpoint slots.
//
// The cursors and the unsorted rows are scratch, freed once the
// transpose is done. The result's off and nbr stay on the Go heap:
// genCache keeps them, and loadCSR's deferred neighbour fills read them
// for the rest of the process.
func buildHostCSR(n uint64, pairs []uint32) hostCSR {
	if uint64(len(pairs)) >= 1<<32 {
		panic(fmt.Sprintf("graph: %d endpoint slots reach 2^32, beyond the CSR build's uint32 cursors", len(pairs)))
	}
	cur, freeCur := scratch(int(2 * n))
	s := &csrState{n: n, pairs: pairs, fwd: cur[:n:n], bwd: cur[n:]}
	inHalves(s, (*csrState).count)
	s.off = make([]uint64, n+1)
	for u := uint64(0); u < n; u++ {
		s.off[u+1] = s.off[u] + uint64(s.fwd[u]) + uint64(s.bwd[u])
	}
	s.cursors()
	rows, freeRows := scratch(int(s.off[n]))
	s.rows = rows
	inHalves(s, (*csrState).scatterRows)
	s.cursors()
	mid, _ := slices.BinarySearch(s.off, s.off[n]/2)
	s.mid, s.start = uint64(mid), s.off[mid]
	inHalves(s, (*csrState).transpose)
	// Both halves of the transpose are done, and nothing after it reads
	// the rows or the cursors.
	s.rows, s.fwd, s.bwd = nil, nil, nil
	freeRows()
	freeCur()
	inHalves(s, (*csrState).dedupe)
	// The first half's rows end at off[mid]; the second's start at start.
	off, nbr := s.off, s.pairs
	gap := s.start - off[mid]
	copy(nbr[off[mid]:], nbr[s.start:off[n]])
	for u := s.mid + 1; u <= n; u++ {
		off[u] -= gap
	}
	return hostCSR{n: n, off: off, nbr: nbr[:off[n]]}
}

// cursors points fwd at every row's start and bwd at its end.
func (s *csrState) cursors() {
	for u := uint64(0); u < s.n; u++ {
		s.fwd[u], s.bwd[u] = uint32(s.off[u]), uint32(s.off[u+1])
	}
}

// count counts half h's entries per vertex into fwd or bwd.
func (s *csrState) count(h int) {
	pairs, deg := s.pairs, s.fwd
	if h == 1 {
		deg = s.bwd
	}
	lo, hi := split(len(pairs)/2, h)
	for i := lo; i < hi; i++ {
		if u, v := pairs[2*i], pairs[2*i+1]; u != v {
			deg[u]++
			deg[v]++
		}
	}
}

// scatterRows writes half h's pairs into the unsorted rows, the second
// half in reverse.
func (s *csrState) scatterRows(h int) {
	pairs, rows, fwd, bwd := s.pairs, s.rows, s.fwd, s.bwd
	lo, hi := split(len(pairs)/2, h)
	if h == 0 {
		for i := lo; i < hi; i++ {
			if u, v := pairs[2*i], pairs[2*i+1]; u != v {
				rows[fwd[u]] = v
				fwd[u]++
				rows[fwd[v]] = u
				fwd[v]++
			}
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		if u, v := pairs[2*i], pairs[2*i+1]; u != v {
			bwd[v]--
			rows[bwd[v]] = u
			bwd[u]--
			rows[bwd[u]] = v
		}
	}
}

// transpose scatters the rows of half h's sources into the pair buffer,
// which is dead by then: the first half's sources ascend, the second's
// descend.
func (s *csrState) transpose(h int) {
	off, rows, nbr, fwd, bwd := s.off, s.rows, s.pairs, s.fwd, s.bwd
	if h == 0 {
		for u := uint64(0); u < s.mid; u++ {
			for _, v := range rows[off[u]:off[u+1]] {
				nbr[fwd[v]] = uint32(u)
				fwd[v]++
			}
		}
		return
	}
	for u := s.n; u > s.mid; u-- {
		for _, v := range rows[off[u-1]:off[u]] {
			bwd[v]--
			nbr[bwd[v]] = uint32(u - 1)
		}
	}
}

// dedupe drops repeated neighbours from half h's sorted rows in place,
// packing them toward the half's first entry and setting each row's new
// end in off. The halves read and write disjoint parts of off: the
// second half starts from start because the first rewrites off[mid].
func (s *csrState) dedupe(h int) {
	off, nbr := s.off, s.pairs
	a, b, lo := uint64(0), s.mid, uint64(0)
	if h == 1 {
		a, b, lo = s.mid, s.n, s.start
	}
	w := lo
	for u := a; u < b; u++ {
		hi := off[u+1]
		for e := lo; e < hi; e++ {
			if e == lo || nbr[e] != nbr[e-1] {
				nbr[w] = nbr[e]
				w++
			}
		}
		off[u+1] = w
		lo = hi
	}
}

// relabelState is relabelByDegree's build state.
type relabelState struct {
	halves
	g, out       hostCSR
	newID, order []uint32
	bwd          []uint32 // the second half's cursors
	mid          int      // the first new ID of the second half
}

// relabelByDegree returns a copy of g with vertices renumbered by
// descending degree, ties by ascending ID — the gapbs triangle-counting
// optimization the paper credits for tc-kron's graceful scaling (§V-A).
// The order is a counting sort on degree, and the rows are a scatter of
// g in new-ID order, which leaves each one sorted as buildHostCSR does.
// The scatter runs in halves like buildHostCSR's transpose, split at
// the new ID where out.off reaches half the entries: the first half
// uses out.off itself as its forward cursors, the second a uint32 array
// of backward ones. newID, order and the backward cursors are scratch.
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
	newID, freeNewID := scratch(int(g.n))
	order, freeOrder := scratch(int(g.n))
	for u := uint64(0); u < g.n; u++ {
		id := first[deg(u)]
		first[deg(u)]++
		newID[u], order[id] = uint32(id), uint32(u)
	}
	out := hostCSR{n: g.n, off: make([]uint64, g.n+1), nbr: make([]uint32, len(g.nbr))}
	offsets := func() {
		out.off[0] = 0
		for id, old := range order {
			out.off[id+1] = out.off[id] + deg(uint64(old))
		}
	}
	offsets()
	mid, _ := slices.BinarySearch(out.off, out.off[g.n]/2)
	bwd, freeBwd := scratch(int(g.n))
	for id := range bwd {
		bwd[id] = uint32(out.off[id+1])
	}
	s := &relabelState{g: g, out: out, newID: newID, order: order, bwd: bwd, mid: mid}
	inHalves(s, (*relabelState).scatter)
	freeNewID()
	freeBwd()
	// The forward cursors stopped where the backward ones did, mid-row.
	offsets()
	freeOrder()
	return out
}

// scatter writes the rows of half h's new IDs, the second half's in
// descending order.
func (s *relabelState) scatter(h int) {
	g, out, newID, order := s.g, s.out, s.newID, s.order
	if h == 0 {
		for id, old := range order[:s.mid] {
			for _, v := range g.nbr[g.off[old]:g.off[old+1]] {
				out.nbr[out.off[newID[v]]] = uint32(id)
				out.off[newID[v]]++
			}
		}
		return
	}
	bwd := s.bwd
	for id := len(order); id > s.mid; id-- {
		old := order[id-1]
		for _, v := range g.nbr[g.off[old]:g.off[old+1]] {
			bwd[newID[v]]--
			out.nbr[bwd[newID[v]]] = uint32(id - 1)
		}
	}
}

// genCache memoizes host CSRs: the overhead methodology rebuilds the same
// instance for the 4 KB, 2 MB and 1 GB runs, several kernels share each
// generated graph, and regeneration dominates setup time at large scales.
// An entry holds 136 bytes per vertex, the offsets and the whole pair
// buffer its neighbours live in: 0.53 MiB at scale 12, 34 MiB at 18 and
// 136 MiB at 20. A relabelled entry is as large for urand and about 94%
// of it for kron. Every ladder rung of both generators, plain and
// relabelled, comes to about 1 GiB of host memory.
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
		pairs = genURand(scale, *rng)
	case "kron":
		pairs = genKron(scale, *rng)
	default:
		panic("graph: unknown generator " + gen)
	}
	return buildHostCSR(uint64(1)<<scale, pairs)
}
