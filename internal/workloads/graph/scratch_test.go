package graph

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atscale/internal/mem"
	"atscale/internal/workloads"
)

// settledHostMapped returns mem.HostMappedBytes once the cleanups of
// machines earlier tests left unreachable have unmapped their memory, so
// a test can compare the gauge across its own builds.
func settledHostMapped() int64 {
	runtime.GC()
	prev := mem.HostMappedBytes()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := mem.HostMappedBytes()
		if cur == prev {
			break
		}
		prev = cur
	}
	return prev
}

// scratchCount wraps scratch for the rest of the test. It counts the
// arrays handed out and those not yet freed, and notes whether
// HostMappedBytes ever read above base while one was live.
type scratchCount struct {
	live, taken, base atomic.Int64
	mapped            atomic.Bool
}

func countScratch(t *testing.T) *scratchCount {
	t.Helper()
	c := &scratchCount{}
	saved := scratch
	t.Cleanup(func() { scratch = saved })
	scratch = func(n int) ([]uint32, func()) {
		s, free := saved(n)
		c.live.Add(1)
		c.taken.Add(1)
		if mem.HostMappedBytes() > c.base.Load() {
			c.mapped.Store(true)
		}
		var freed atomic.Bool
		return s, func() {
			if freed.Swap(true) {
				t.Errorf("scratch of %d words freed twice", n)
			}
			free()
			c.live.Add(-1)
		}
	}
	return c
}

// scratchBuild is one build whose scratch the test checks: a real input
// and its relabel, or pairs scattered over many more vertices than they
// name, so that the per-vertex cursors and every relabel array reach a
// huge page and are mapped too.
type scratchBuild struct {
	name  string
	build func() hostCSR
}

var scratchBuilds = []scratchBuild{
	{"kron-15", func() hostCSR { return generateUncached("kron", 15).relabelByDegree() }},
	{"urand-15", func() hostCSR { return generateUncached("urand", 15).relabelByDegree() }},
	{"urand-15-on-2^19", func() hostCSR {
		return buildHostCSR(1<<19, genURand(15, *workloads.NewRNG(15))).relabelByDegree()
	}},
}

// checkReturned runs builds and requires every scratch array they took
// to be freed, and HostMappedBytes to read after them what it read
// before: the mappings are all gone. On Linux the rows of a scale-15
// input span two huge pages, so each build must have mapped something.
func checkReturned(t *testing.T, c *scratchCount, builds ...scratchBuild) {
	t.Helper()
	before := settledHostMapped()
	c.base.Store(before)
	c.mapped.Store(false)
	taken := c.taken.Load()
	var wg sync.WaitGroup
	for _, b := range builds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g := b.build(); g.n == 0 {
				t.Errorf("%s: empty input", b.name)
			}
		}()
	}
	wg.Wait()
	if c.taken.Load() == taken {
		t.Fatal("the builds took no scratch")
	}
	if live := c.live.Load(); live != 0 {
		t.Errorf("%d scratch arrays not freed after the build", live)
	}
	if runtime.GOOS == "linux" && !c.mapped.Load() {
		t.Error("no scratch was mapped")
	}
	if after := settledHostMapped(); after != before {
		t.Errorf("HostMappedBytes = %d after the build, %d before: %d bytes of scratch still mapped",
			after, before, after-before)
	}
}

// TestBuildScratchReturned builds inputs whose scratch is mapped and
// requires all of it to be unmapped when each build returns: with the
// halves of every step in sequence, in both orders, and with two
// different inputs built concurrently.
func TestBuildScratchReturned(t *testing.T) {
	c := countScratch(t)
	t.Run("halves", func(t *testing.T) {
		t.Cleanup(func() { halvesInSequence = nil })
		for _, seq := range [][]int{{0, 1}, {1, 0}} {
			halvesInSequence = seq
			for _, b := range scratchBuilds {
				t.Run(fmt.Sprintf("%s-%v", b.name, seq), func(t *testing.T) {
					checkReturned(t, c, b)
				})
			}
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		checkReturned(t, c, scratchBuilds[0], scratchBuilds[2])
	})
}
