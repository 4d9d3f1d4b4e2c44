package scheme

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"atscale/internal/arch"
)

// refDir is the stamp-based directory assocDir replaced, kept as its
// reference model: each way carries the clock value of its last
// reference (0 marks an empty way), and an insert takes the way with
// the oldest stamp.
type refDir struct {
	keys  []uint64
	base  []arch.PAddr
	stamp []uint64
	ways  int
	sets  uint64
	clock uint64
}

func newRefDir(d *assocDir) *refDir {
	n := len(d.data)
	return &refDir{keys: make([]uint64, n), base: make([]arch.PAddr, n), stamp: make([]uint64, n), ways: d.ways, sets: d.sets}
}

func (d *refDir) lookup(key uint64) (arch.PAddr, bool) {
	d.clock++
	s := (key % d.sets) * uint64(d.ways)
	for i := s; i < s+uint64(d.ways); i++ {
		if d.stamp[i] != 0 && d.keys[i] == key {
			d.stamp[i] = d.clock
			return d.base[i], true
		}
	}
	return 0, false
}

func (d *refDir) insert(key uint64, base arch.PAddr) {
	d.clock++
	s := (key % d.sets) * uint64(d.ways)
	victim, oldest := s, uint64(1)<<63
	for i := s; i < s+uint64(d.ways); i++ {
		if d.stamp[i] != 0 && d.keys[i] == key {
			d.base[i], d.stamp[i] = base, d.clock
			return
		}
		if d.stamp[i] < oldest {
			victim, oldest = i, d.stamp[i]
		}
	}
	d.keys[victim], d.base[victim], d.stamp[victim] = key, base, d.clock
}

func (d *refDir) invalidate(key uint64) {
	s := (key % d.sets) * uint64(d.ways)
	for i := s; i < s+uint64(d.ways); i++ {
		if d.stamp[i] != 0 && d.keys[i] == key {
			d.keys[i], d.base[i], d.stamp[i] = 0, 0, 0
		}
	}
}

func (d *refDir) flush() {
	clear(d.keys)
	clear(d.base)
	clear(d.stamp)
}

// recencyOrder returns the reference set starting at way s, newest
// stamp first, then its empty ways.
func (d *refDir) recencyOrder(s int) []dirWay {
	var live []int
	for i := s; i < s+d.ways; i++ {
		if d.stamp[i] != 0 {
			live = append(live, i)
		}
	}
	slices.SortFunc(live, func(a, b int) int { return cmp.Compare(d.stamp[b], d.stamp[a]) })
	set := make([]dirWay, d.ways)
	for i := range set {
		set[i] = dirWay{key: invalidKey}
	}
	for i, w := range live {
		set[i] = dirWay{key: d.keys[w], base: d.base[w]}
	}
	return set
}

// TestAssocDirMatchesReference drives assocDir and the stamp-based
// reference with one random lookup/insert/invalidate/flush stream over
// the Victima and DRAM-cache way counts and odd set counts, comparing
// every result and every set after each op.
func TestAssocDirMatchesReference(t *testing.T) {
	for _, g := range []struct{ entries, ways int }{
		{1, 1}, {12, 4}, {40, 8}, {100, victimaWays}, {3 * dcWays, dcWays},
	} {
		d := newAssocDir(g.entries, g.ways)
		ref := newRefDir(d)
		rng := rand.New(rand.NewSource(int64(g.entries)))
		keys := uint64(3*len(d.data) + 1)
		for op := 0; op < 20000; op++ {
			key := rng.Uint64() % keys
			switch r := rng.Intn(64); {
			case r == 0:
				d.flush()
				ref.flush()
			case r < 28:
				gotB, got := d.lookup(key)
				wantB, want := ref.lookup(key)
				if got != want || gotB != wantB {
					t.Fatalf("%d x %d op %d: lookup(%d) = %#x,%v; reference %#x,%v", g.entries, g.ways, op, key, gotB, got, wantB, want)
				}
			case r < 56:
				b := arch.PAddr(rng.Uint64() &^ 0xfff)
				d.insert(key, b)
				ref.insert(key, b)
			default:
				d.invalidate(key)
				ref.invalidate(key)
			}
			for s := 0; s < len(d.data); s += d.ways {
				if got, want := d.data[s:s+d.ways], ref.recencyOrder(s); !slices.Equal(got, want) {
					t.Fatalf("%d x %d op %d: set at way %d holds %v, reference %v", g.entries, g.ways, op, s, got, want)
				}
			}
		}
	}
}
