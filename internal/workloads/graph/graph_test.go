package graph

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/machine"
	"atscale/internal/perf"
	"atscale/internal/workloads"
)

func TestGeneratorsDeterministic(t *testing.T) {
	for _, gen := range []string{"urand", "kron"} {
		a := generate(gen, 8)
		b := generate(gen, 8)
		if a.n != b.n || len(a.nbr) != len(b.nbr) {
			t.Fatalf("%s nondeterministic shapes", gen)
		}
		for i := range a.nbr {
			if a.nbr[i] != b.nbr[i] {
				t.Fatalf("%s nondeterministic at %d", gen, i)
			}
		}
	}
}

func checkCSRWellFormed(t *testing.T, h hostCSR) {
	t.Helper()
	if h.off[0] != 0 || h.off[h.n] != uint64(len(h.nbr)) {
		t.Fatal("offsets malformed")
	}
	for u := uint64(0); u < h.n; u++ {
		if h.off[u] > h.off[u+1] {
			t.Fatalf("offsets not monotone at %d", u)
		}
		list := h.nbr[h.off[u]:h.off[u+1]]
		if !sort.SliceIsSorted(list, func(i, j int) bool { return list[i] < list[j] }) {
			t.Fatalf("adjacency of %d not sorted", u)
		}
		for i := 1; i < len(list); i++ {
			if list[i] == list[i-1] {
				t.Fatalf("duplicate neighbour %d of %d", list[i], u)
			}
		}
		for _, v := range list {
			if uint64(v) >= h.n {
				t.Fatalf("neighbour %d out of range", v)
			}
			if uint64(v) == u {
				t.Fatalf("self loop at %d", u)
			}
		}
	}
}

func TestCSRWellFormed(t *testing.T) {
	for _, gen := range []string{"urand", "kron"} {
		checkCSRWellFormed(t, generate(gen, 8))
	}
}

func TestCSRSymmetric(t *testing.T) {
	h := generate("urand", 7)
	has := func(u, v uint32) bool {
		list := h.nbr[h.off[u]:h.off[u+1]]
		i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
		return i < len(list) && list[i] == v
	}
	for u := uint64(0); u < h.n; u++ {
		for _, v := range h.nbr[h.off[u]:h.off[u+1]] {
			if !has(v, uint32(u)) {
				t.Fatalf("edge %d->%d not symmetric", u, v)
			}
		}
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	h := generate("kron", 8)
	r := h.relabelByDegree()
	checkCSRWellFormed(t, r)
	if len(r.nbr) != len(h.nbr) {
		t.Fatalf("relabel changed edge count: %d vs %d", len(r.nbr), len(h.nbr))
	}
	// Degrees must be non-increasing in the new numbering.
	for u := uint64(1); u < r.n; u++ {
		if r.off[u+1]-r.off[u] > r.off[u]-r.off[u-1] {
			t.Fatalf("degree ordering violated at %d", u)
		}
	}
	// Degree multiset preserved.
	degs := func(g hostCSR) []int {
		d := make([]int, g.n)
		for u := uint64(0); u < g.n; u++ {
			d[u] = int(g.off[u+1] - g.off[u])
		}
		sort.Ints(d)
		return d
	}
	dh, dr := degs(h), degs(r)
	for i := range dh {
		if dh[i] != dr[i] {
			t.Fatal("relabel changed degree multiset")
		}
	}
}

func TestKronIsSkewed(t *testing.T) {
	// Kron graphs must have a much higher max degree than urand at the
	// same scale (scale-free vs binomial).
	maxDeg := func(h hostCSR) uint64 {
		var m uint64
		for u := uint64(0); u < h.n; u++ {
			if d := h.off[u+1] - h.off[u]; d > m {
				m = d
			}
		}
		return m
	}
	u, k := generate("urand", 10), generate("kron", 10)
	if maxDeg(k) < 3*maxDeg(u) {
		t.Errorf("kron max degree %d not >> urand %d", maxDeg(k), maxDeg(u))
	}
}

func TestAllKernelsRegistered(t *testing.T) {
	want := []string{"bc", "bfs", "cc", "pr", "tc"}
	for _, prog := range want {
		for _, gen := range []string{"urand", "kron"} {
			if _, err := workloads.ByName(prog + "-" + gen); err != nil {
				t.Errorf("%s-%s not registered: %v", prog, gen, err)
			}
		}
	}
}

// TestKernelsRunAndCount runs every kernel at tiny scale and checks the
// measured region produced a plausible counter profile.
func TestKernelsRunAndCount(t *testing.T) {
	for _, name := range []string{"bfs-urand", "pr-urand", "cc-urand", "bc-kron", "tc-kron"} {
		t.Run(name, func(t *testing.T) {
			spec, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 7)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := spec.Build(m, 10) // 1024 vertices
			if err != nil {
				t.Fatal(err)
			}
			start := m.Counters()
			inst.Run(100_000)
			d := perf.Delta(start, m.Counters())
			accesses := d.Get(perf.AllLoads) + d.Get(perf.AllStores)
			if accesses < 100_000 {
				t.Errorf("ran only %d accesses", accesses)
			}
			if accesses > 400_000 {
				t.Errorf("overran budget: %d accesses", accesses)
			}
			if d.Get(perf.Branches) == 0 {
				t.Error("kernel retired no branches")
			}
			if d.Get(perf.InstRetired) <= accesses {
				t.Error("no non-memory instructions retired")
			}
			if m.Footprint() == 0 {
				t.Error("zero footprint")
			}
		})
	}
}

func TestTCCountsTriangles(t *testing.T) {
	// Cross-check the guest tc kernel against a host-side count on a
	// small graph.
	m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 7)
	if err != nil {
		t.Fatal(err)
	}
	h := generate("urand", 7).relabelByDegree()
	g, err := loadCSR(m, h)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := newTC(m, g)
	k := inst.(*tc)
	k.pass(workloads.NewBudget(m, 1<<62)) // one full pass, no budget stop
	// Host count.
	adj := make([]map[uint32]bool, h.n)
	for u := uint64(0); u < h.n; u++ {
		adj[u] = map[uint32]bool{}
		for _, v := range h.nbr[h.off[u]:h.off[u+1]] {
			adj[u][v] = true
		}
	}
	var want uint64
	for u := uint64(0); u < h.n; u++ {
		for _, v := range h.nbr[h.off[u]:h.off[u+1]] {
			if uint64(v) <= u {
				continue
			}
			for _, w := range h.nbr[h.off[v]:h.off[v+1]] {
				if uint64(w) > uint64(v) && adj[u][w] {
					want++
				}
			}
		}
	}
	if k.triangles != want {
		t.Errorf("tc counted %d triangles, host count %d", k.triangles, want)
	}
}

func TestBFSVisitsComponent(t *testing.T) {
	m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadCSR(m, generate("urand", 8))
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := newBFS(m, g)
	b := inst.(*bfs)
	b.trial(workloads.NewBudget(m, 1<<62))
	// With degree 16 the graph is connected w.h.p.; every vertex must
	// have a finite distance.
	unreached := 0
	for i := uint64(0); i < g.N; i++ {
		if b.dist.Peek(i) == inf {
			unreached++
		}
	}
	if unreached > int(g.N)/100 {
		t.Errorf("%d/%d vertices unreached", unreached, g.N)
	}
}

// TestWriteEdgeListOncePerEdge requires one "u v" line per undirected
// CSR edge, with u < v.
func TestWriteEdgeListOncePerEdge(t *testing.T) {
	for _, gen := range []string{"urand", "kron"} {
		var buf bytes.Buffer
		n, err := WriteEdgeList(&buf, gen, 8)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		want := len(generate(gen, 8).nbr) / 2
		if n != want || len(lines) != want {
			t.Fatalf("%s: %d lines, reported %d, want %d", gen, len(lines), n, want)
		}
		for _, l := range lines {
			var u, v uint64
			if _, err := fmt.Sscanf(l, "%d %d", &u, &v); err != nil || u >= v {
				t.Fatalf("%s: line %q is not an edge with u < v", gen, l)
			}
		}
	}
}

// BenchmarkGenerate times building a graph input from scratch: edge
// generation, the CSR build and the degree relabel tc runs on.
func BenchmarkGenerate(b *testing.B) {
	for _, gen := range []string{"kron", "urand"} {
		b.Run(fmt.Sprintf("%s-16", gen), func(b *testing.B) {
			for b.Loop() {
				generateUncached(gen, 16).relabelByDegree()
			}
			edges := float64(degree<<16) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/edges, "ns/edge")
		})
	}
}
