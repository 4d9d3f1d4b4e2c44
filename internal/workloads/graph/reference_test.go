package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"atscale/internal/workloads"
)

// The reference generators and CSR builders below are the straightforward
// versions gen.go must reproduce bit for bit: float-threshold R-MAT draws,
// an edge-struct list, and a comparison sort per adjacency row.

type edge struct{ u, v uint32 }

func refGenURand(scale uint64, rng *workloads.RNG) []edge {
	n := uint64(1) << scale
	m := degree * n
	edges := make([]edge, 0, m)
	for i := uint64(0); i < m; i++ {
		edges = append(edges, edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))})
	}
	return edges
}

func refGenKron(scale uint64, rng *workloads.RNG) []edge {
	n := uint64(1) << scale
	m := degree * n
	edges := make([]edge, 0, m)
	for i := uint64(0); i < m; i++ {
		edges = append(edges, refKronEdge(scale, rng))
	}
	return edges
}

// refKronEdge draws one R-MAT edge, one float draw per bit.
func refKronEdge(scale uint64, rng *workloads.RNG) edge {
	var u, v uint64
	for bit := uint64(0); bit < scale; bit++ {
		p := rng.Float64()
		switch {
		case p < kronA:
			// top-left: no bits set
		case p < kronA+kronB:
			v |= 1 << bit
		case p < kronA+kronB+kronC:
			u |= 1 << bit
		default:
			u |= 1 << bit
			v |= 1 << bit
		}
	}
	return edge{uint32(u), uint32(v)}
}

func refBuildHostCSR(n uint64, edges []edge) hostCSR {
	deg := make([]uint64, n+1)
	for _, e := range edges {
		if e.u == e.v {
			continue
		}
		deg[e.u]++
		deg[e.v]++
	}
	off := make([]uint64, n+1)
	var sum uint64
	for i := uint64(0); i < n; i++ {
		off[i] = sum
		sum += deg[i]
	}
	off[n] = sum
	nbr := make([]uint32, sum)
	pos := append([]uint64(nil), off...)
	for _, e := range edges {
		if e.u == e.v {
			continue
		}
		nbr[pos[e.u]] = e.v
		pos[e.u]++
		nbr[pos[e.v]] = e.u
		pos[e.v]++
	}
	w := uint64(0)
	newOff := make([]uint64, n+1)
	for u := uint64(0); u < n; u++ {
		newOff[u] = w
		list := nbr[off[u]:off[u+1]]
		slices.Sort(list)
		var last uint32
		first := true
		for _, v := range list {
			if first || v != last {
				nbr[w] = v
				w++
				first = false
				last = v
			}
		}
	}
	newOff[n] = w
	return hostCSR{n: n, off: newOff, nbr: nbr[:w]}
}

func refRelabelByDegree(g hostCSR) hostCSR {
	order := make([]uint32, g.n)
	for i := range order {
		order[i] = uint32(i)
	}
	degOf := func(u uint32) uint64 { return g.off[u+1] - g.off[u] }
	slices.SortFunc(order, func(a, b uint32) int {
		if c := cmp.Compare(degOf(b), degOf(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	newID := make([]uint32, g.n)
	for rank, old := range order {
		newID[old] = uint32(rank)
	}
	out := hostCSR{n: g.n, off: make([]uint64, g.n+1), nbr: make([]uint32, len(g.nbr))}
	var w uint64
	for rank := uint64(0); rank < g.n; rank++ {
		out.off[rank] = w
		old := order[rank]
		for e := g.off[old]; e < g.off[old+1]; e++ {
			out.nbr[w] = newID[g.nbr[e]]
			w++
		}
		slices.Sort(out.nbr[out.off[rank]:w])
	}
	out.off[g.n] = w
	return out
}

func refGenerate(gen string, scale uint64) hostCSR {
	rng := workloads.NewRNG(scale*1315423911 + uint64(len(gen)))
	var edges []edge
	switch gen {
	case "urand":
		edges = refGenURand(scale, rng)
	case "kron":
		edges = refGenKron(scale, rng)
	}
	return refBuildHostCSR(uint64(1)<<scale, edges)
}

func flatten(edges []edge) []uint32 {
	pairs := make([]uint32, 0, 2*len(edges))
	for _, e := range edges {
		pairs = append(pairs, e.u, e.v)
	}
	return pairs
}

func sameCSR(t *testing.T, what string, got, want hostCSR) {
	t.Helper()
	if got.n != want.n || !slices.Equal(got.off, want.off) || !slices.Equal(got.nbr, want.nbr) {
		t.Fatalf("%s: CSR differs from reference (n %d/%d, entries %d/%d)",
			what, got.n, want.n, len(got.nbr), len(want.nbr))
	}
}

// TestGeneratorsMatchReference requires every generated input, before
// and after the degree relabel, to equal the reference build exactly.
func TestGeneratorsMatchReference(t *testing.T) {
	for _, gen := range []string{"urand", "kron"} {
		for scale := uint64(1); scale <= 16; scale++ {
			what := fmt.Sprintf("%s-%d", gen, scale)
			got, want := generateUncached(gen, scale), refGenerate(gen, scale)
			sameCSR(t, what, got, want)
			sameCSR(t, what+" relabelled", got.relabelByDegree(), refRelabelByDegree(want))
		}
	}
}

// TestKronThresholds holds kronEdges' integer thresholds to the float
// comparisons of the reference generator, at each threshold and on
// either side of it.
func TestKronThresholds(t *testing.T) {
	for _, c := range []struct {
		p float64
		k uint64
	}{{kronA, kronTA}, {kronA + kronB, kronTAB}, {kronA + kronB + kronC, kronTABC}} {
		if want := uint64(math.Ceil(c.p * (1 << 53))); c.k != want {
			t.Errorf("threshold for %v is %d, want ceil(p·2^53) = %d", c.p, c.k, want)
		}
		for _, k := range []uint64{c.k - 1, c.k, c.k + 1} {
			if below, lt := float64(k)/(1<<53) < c.p, k < c.k; below != lt {
				t.Errorf("draw k=%d: float compare with %v says %v, integer compare says %v", k, c.p, below, lt)
			}
		}
	}
}

// TestKronEdgesWideScales draws edges at scales up to 32, where u and v
// fill the word kronEdges packs them in, against the reference draws,
// and requires the stream to end scale draws per edge on. Above 32 the
// vertex IDs no longer fit, and kronEdges panics.
func TestKronEdgesWideScales(t *testing.T) {
	for _, scale := range []uint64{1, 2, 17, 31, 32} {
		const edges = 200
		rng, ref := *workloads.NewRNG(scale), *workloads.NewRNG(scale)
		pairs := make([]uint32, 2*edges)
		kronEdges(pairs, scale, &rng)
		for i := 0; i < edges; i++ {
			if e := refKronEdge(scale, &ref); pairs[2*i] != e.u || pairs[2*i+1] != e.v {
				t.Fatalf("scale %d edge %d: got (%d,%d), want (%d,%d)", scale, i, pairs[2*i], pairs[2*i+1], e.u, e.v)
			}
		}
		if rng != ref {
			t.Errorf("scale %d: the stream did not end %d draws on", scale, edges*scale)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("kronEdges at scale 33 did not panic")
		}
	}()
	rng := *workloads.NewRNG(1)
	kronEdges(make([]uint32, 2), 33, &rng)
}

// TestHalvesMatchReference runs every build step's two halves one after
// the other, in both orders, and requires each input and its relabel to
// equal the reference build: the halves must write disjoint parts of
// the output and meet exactly. TestGeneratorsMatchReference is the same
// check with the halves running concurrently.
func TestHalvesMatchReference(t *testing.T) {
	t.Cleanup(func() { halvesInSequence = nil })
	for _, gen := range []string{"urand", "kron"} {
		for scale := uint64(1); scale <= 16; scale++ {
			want := refGenerate(gen, scale)
			wantRelabel := refRelabelByDegree(want)
			for _, seq := range [][]int{{0, 1}, {1, 0}} {
				halvesInSequence = seq
				what := fmt.Sprintf("%s-%d halves %v", gen, scale, seq)
				got := generateUncached(gen, scale)
				sameCSR(t, what, got, want)
				sameCSR(t, what+" relabelled", got.relabelByDegree(), wantRelabel)
			}
		}
	}
}

// FuzzHostCSRMatchesReference builds the CSR and its relabel from
// arbitrary small pair lists with both builders.
func FuzzHostCSRMatchesReference(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 2, 2, 3, 3, 0})
	f.Add(uint8(3), []byte{0, 0, 1, 1, 2, 2, 0, 1})                         // self-loops
	f.Add(uint8(5), []byte{1, 2, 2, 1, 1, 2, 4, 3, 3, 4, 4, 3})             // duplicates
	f.Add(uint8(9), []byte{0, 1, 2, 0, 0, 3, 4, 0, 0, 5, 6, 0, 0, 7, 8, 0}) // hub
	f.Add(uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, nb uint8, raw []byte) {
		n := uint64(nb%64) + 1
		var edges []edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, edge{uint32(uint64(raw[i]) % n), uint32(uint64(raw[i+1]) % n)})
		}
		want := refBuildHostCSR(n, edges)
		got := buildHostCSR(n, flatten(edges))
		sameCSR(t, "csr", got, want)
		sameCSR(t, "relabel", got.relabelByDegree(), refRelabelByDegree(want))
	})
}
