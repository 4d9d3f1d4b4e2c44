package workloads

import (
	"slices"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/machine"
)

// fuzzOps reads the operands of one fuzz operation; past the end of the
// input every byte reads as zero.
type fuzzOps struct{ b []byte }

func (o *fuzzOps) next() uint64 {
	if len(o.b) == 0 {
		return 0
	}
	v := o.b[0]
	o.b = o.b[1:]
	return uint64(v)
}

// taggedStage is a pure stage: element i of the k-th array is
// fillVal(k, i) under tag.
func taggedStage(tag uint64) func(s uint64, runs [][]uint64) {
	return func(s uint64, runs [][]uint64) {
		for k, r := range runs {
			for j := range r {
				r[j] = tag ^ fillVal(k, s+uint64(j))
			}
		}
	}
}

// fillSide is one machine of FuzzDeferRunsMatchesFillRuns: its arrays are
// the deferred ones, then the two eagerly filled neighbours.
type fillSide struct {
	m    *machine.Machine
	log  *prefaultLog
	arrs []Array
}

// alloc allocates the side's arrays, sizes[0] as the leading neighbour,
// then the deferred arrays, then the trailing neighbour, and installs the
// prefault log.
func (f *fillSide) alloc(t *testing.T, sizes []uint64) {
	t.Helper()
	f.arrs = f.arrs[:0]
	for _, n := range sizes {
		a, err := NewArray(f.m, n)
		if err != nil {
			t.Fatal(err)
		}
		f.arrs = append(f.arrs, a)
	}
	f.m.SetTracer(f.log)
}

// FuzzDeferRunsMatchesFillRuns fills the same arrays with FillRuns on one
// machine and DeferRuns on another, then drives both with one stream of
// loads, peeks, stores, whole-array scans, eager refills and redeferrals
// of the deferred arrays, and renewals (which reset the data stores and
// must drop pending deferrals). Every word must read back the same on
// both, and both must prefault the same pages in the same order. The one
// to three deferred arrays are page-aligned (a 128 KB or larger array
// gets its own region) or small and unaligned, and two small neighbours,
// filled eagerly on both machines before or after the deferral, share
// pages with the small ones. Words.Equal is no oracle here: the deferred
// side materializes fewer chunks.
func FuzzDeferRunsMatchesFillRuns(f *testing.F) {
	f.Add([]byte{
		// Two small deferred arrays between the neighbours, filled after
		// the deferral; stores into deferred chunks, then loads and scans.
		2, 40, 0, 90, 0, 120, 17, 0, 9, 1, 2, 0, 1, 44, 7, 2, 1, 0, 200, 9,
		0, 0, 0, 3, 0, 3, 1, 3, 2, 0, 1, 1, 5,
	})
	f.Add([]byte{
		// One large and two small deferred arrays, neighbours filled first;
		// a store before any read, a renewal, a refill and a redeferral.
		3, 7, 1, 3, 0, 200, 0, 33, 99, 1, 1, 40, 5, 2, 2, 0, 3, 77,
		0, 2, 1, 9, 4, 1, 3, 3, 5, 2, 1, 6, 1, 3, 1, 0, 2, 0, 9, 4, 0, 3, 4,
	})
	f.Add([]byte{
		// Two small deferred arrays at different page offsets, so their
		// runs split each chunk: a 36-word neighbour, 1104 and 551 words,
		// an 11-word neighbour; both deferred arrays scanned.
		1, 7, 0, 100, 3, 0, 50, 0, 2, 0, 0, 5,
		3, 1, 3, 2,
	})
	f.Add([]byte{
		// One large deferred array, a renewal without a refill, then a
		// peek and a scan that must read zeros.
		0, 0, 1, 0, 0, 0, 0, 3,
		4, 0, 1, 1, 0, 9, 3, 1,
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		o := fuzzOps{b: in}
		narr := 1 + int(o.next()%maxFillArrays)
		sizes := []uint64{1 + o.next()*5}
		for range narr {
			if o.next()&1 == 1 {
				sizes = append(sizes, 16*arch.KB+o.next()*67)
			} else {
				sizes = append(sizes, 1+o.next()*11+o.next()%11)
			}
		}
		sizes = append(sizes, 1+o.next()*5)
		n := slices.Min(sizes[1 : 1+narr])
		n -= o.next() * 7 % (n + 1)
		neighboursFirst := o.next()&1 == 1
		tag := o.next() << 48

		var eager, deferred fillSide
		for _, s := range []*fillSide{&eager, &deferred} {
			m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Release()
			s.m, s.log = m, &prefaultLog{}
		}
		// fill fills the side's deferred arrays, eagerly unless deferring,
		// and the neighbours eagerly around it.
		fill := func(s *fillSide, deferring bool) {
			neighbours := func() {
				for _, a := range []Array{s.arrs[0], s.arrs[len(s.arrs)-1]} {
					FillRuns(a.Len(), taggedStage(^tag), a)
				}
			}
			if neighboursFirst {
				neighbours()
			}
			if deferring {
				DeferRuns(n, taggedStage(tag), s.arrs[1:1+narr]...)
			} else {
				FillRuns(n, taggedStage(tag), s.arrs[1:1+narr]...)
			}
			if !neighboursFirst {
				neighbours()
			}
		}
		for _, s := range []*fillSide{&eager, &deferred} {
			s.alloc(t, sizes)
			fill(s, s == &deferred)
		}
		// index picks an array and an element of it.
		index := func() (int, uint64) {
			k := int(o.next() % uint64(len(sizes)))
			return k, (o.next()<<8 | o.next()) % sizes[k]
		}
		same := func(what string, k int, i uint64, e, d uint64) {
			t.Helper()
			if e != d {
				t.Fatalf("%s of array %d element %d: eager %#x, deferred %#x", what, k, i, e, d)
			}
		}
		scan := func(k int) {
			for i := uint64(0); i < sizes[k]; i++ {
				same("peek", k, i, eager.arrs[k].Peek(i), deferred.arrs[k].Peek(i))
			}
		}
		for op := 0; op < 64 && len(o.b) > 0; op++ {
			switch o.next() % 7 {
			case 0:
				k, i := index()
				same("load", k, i, eager.arrs[k].Get(i), deferred.arrs[k].Get(i))
			case 1:
				k, i := index()
				same("peek", k, i, eager.arrs[k].Peek(i), deferred.arrs[k].Peek(i))
			case 2:
				k, i := index()
				v := o.next()<<32 | uint64(op)
				eager.arrs[k].Set(i, v)
				deferred.arrs[k].Set(i, v)
			case 3:
				scan(int(o.next() % uint64(len(sizes))))
			case 4:
				// Renew both machines; the arrays come back at the same
				// addresses, every word zero, and are filled again or not.
				refill := o.next()&1 == 1
				for _, s := range []*fillSide{&eager, &deferred} {
					if !s.m.Renew(arch.Page4K, 1) {
						t.Fatal("renew failed")
					}
					s.alloc(t, sizes)
					if refill {
						fill(s, s == &deferred)
					}
				}
			case 5:
				// An eager refill of the deferred arrays on both sides
				// overrides what is deferred, whole chunks included.
				tag ^= o.next() << 40
				for _, s := range []*fillSide{&eager, &deferred} {
					FillRuns(n, taggedStage(tag), s.arrs[1:1+narr]...)
				}
			case 6:
				// A newer deferral overrides an older one.
				tag ^= o.next() << 40
				FillRuns(n, taggedStage(tag), eager.arrs[1:1+narr]...)
				DeferRuns(n, taggedStage(tag), deferred.arrs[1:1+narr]...)
			}
		}
		for k := range sizes {
			scan(k)
		}
		if !slices.Equal(deferred.log.pages, eager.log.pages) {
			t.Fatalf("prefaults differ:\ndeferred %#x\neager    %#x", deferred.log.pages, eager.log.pages)
		}
	})
}

// deferredArcs defers three arrays of n words each on a fresh machine,
// the shape of mcf's arcs.
func deferredArcs(t testing.TB, n uint64) (*machine.Machine, []Array) {
	m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 1)
	if err != nil {
		t.Fatal(err)
	}
	arrs := make([]Array, 3)
	for k := range arrs {
		if arrs[k], err = NewArray(m, n); err != nil {
			t.Fatal(err)
		}
	}
	DeferRuns(n, taggedStage(7), arrs...)
	return m, arrs
}

// TestDeferRunsAllocations gates a deferral to allocations per array,
// the same for 64 and 4096 pages per array, and the materialization of a
// deferred chunk, once a staging set exists, to none.
func TestDeferRunsAllocations(t *testing.T) {
	var perDeferral []float64
	for _, pages := range []uint64{64, 4096} {
		n := pages * runWords
		m, arrs := deferredArcs(t, n)
		defer m.Release()
		// Later deferrals over mapped pages send the back end nothing.
		perDeferral = append(perDeferral, testing.AllocsPerRun(10, func() {
			DeferRuns(n, taggedStage(9), arrs...)
		}))
	}
	if perDeferral[0] != perDeferral[1] || perDeferral[0] > 2*maxFillArrays {
		t.Errorf("a deferral of 3 arrays allocates %v times at 64 pages and %v at 4096; want at most %d, independent of size",
			perDeferral[0], perDeferral[1], 2*maxFillArrays)
	}

	m, arrs := deferredArcs(t, 512*runWords)
	defer m.Release()
	arrs[0].Peek(0) // a staging set exists
	i := uint64(0)
	read := func() {
		i++
		k := int(i % 3)
		if got, want := arrs[k].Peek(i*runWords), 7^fillVal(k, i*runWords); got != want {
			t.Fatalf("array %d element %d = %#x, want %#x", k, i*runWords, got, want)
		}
	}
	if n := testing.AllocsPerRun(200, read); n != 0 {
		t.Errorf("materializing a deferred chunk allocates %v times", n)
	}
}
