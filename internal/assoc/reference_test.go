package assoc

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// refArray is the stamp-based directory the recency-ordered arrays
// replaced, kept as their reference model: each way carries the clock
// value of its last reference (0 marks an empty way), and an insert
// takes the way with the oldest stamp.
type refArray struct {
	keys  []uint64
	vals  []uint64
	stamp []uint64
	ways  int
	sets  uint64
	clock uint64
}

func newRefArray(sets, ways int) *refArray {
	n := sets * ways
	return &refArray{keys: make([]uint64, n), vals: make([]uint64, n), stamp: make([]uint64, n), ways: ways, sets: uint64(sets)}
}

func (d *refArray) lookup(key uint64) (uint64, bool) {
	d.clock++
	s := (key % d.sets) * uint64(d.ways)
	for i := s; i < s+uint64(d.ways); i++ {
		if d.stamp[i] != 0 && d.keys[i] == key {
			d.stamp[i] = d.clock
			return d.vals[i], true
		}
	}
	return 0, false
}

func (d *refArray) insert(key, val uint64) {
	d.clock++
	s := (key % d.sets) * uint64(d.ways)
	victim, oldest := s, uint64(1)<<63
	for i := s; i < s+uint64(d.ways); i++ {
		if d.stamp[i] != 0 && d.keys[i] == key {
			d.vals[i], d.stamp[i] = val, d.clock
			return
		}
		if d.stamp[i] < oldest {
			victim, oldest = i, d.stamp[i]
		}
	}
	if d.ways > 0 {
		d.keys[victim], d.vals[victim], d.stamp[victim] = key, val, d.clock
	}
}

func (d *refArray) invalidate(key uint64) {
	s := (key % d.sets) * uint64(d.ways)
	for i := s; i < s+uint64(d.ways); i++ {
		if d.stamp[i] != 0 && d.keys[i] == key {
			d.keys[i], d.vals[i], d.stamp[i] = 0, 0, 0
		}
	}
}

func (d *refArray) flush() {
	clear(d.keys)
	clear(d.vals)
	clear(d.stamp)
}

// recencyOrder returns the keys of set s's valid ways, newest stamp
// first.
func (d *refArray) recencyOrder(s int) []uint64 {
	var live []int
	for i := s * d.ways; i < (s+1)*d.ways; i++ {
		if d.stamp[i] != 0 {
			live = append(live, i)
		}
	}
	slices.SortFunc(live, func(a, b int) int { return cmp.Compare(d.stamp[b], d.stamp[a]) })
	keys := make([]uint64, len(live))
	for i, w := range live {
		keys[i] = d.keys[w]
	}
	return keys
}

// FuzzArrayMatchesReference drives an Array and the stamp-based
// reference with one random stream of lookups, new inserts, refreshes,
// invalidates and flushes, and compares every result, every set's
// recency order and Live after each op. Shapes run from one set of 0-24
// ways (the PSC levels and the nTLB) through 2-16 sets, powers of two
// (the TLBs) and not (the directories round theirs up). Keys crowd into
// a few per way, so sets fill and evict, and some sit at the top of the
// key space, where an invalid-key sentinel used to live.
func FuzzArrayMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4))
	f.Add(int64(2), uint8(0), uint8(0))
	f.Add(int64(3), uint8(0), uint8(24))
	f.Add(int64(4), uint8(7), uint8(8))
	f.Add(int64(5), uint8(2), uint8(16))
	f.Add(int64(6), uint8(12), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, setsIn, waysIn uint8) {
		sets, ways := 1+int(setsIn%16), int(waysIn%25)
		a, ref := New[uint64, uint64](sets, ways), newRefArray(sets, ways)
		rng := rand.New(rand.NewSource(seed))
		keys := uint64(3*sets*ways + 2)
		key := func() uint64 {
			k := rng.Uint64() % keys
			if rng.Intn(8) == 0 {
				k = ^k
			}
			return k
		}
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(64); {
			case r == 0:
				a.Flush()
				ref.flush()
			case r < 24:
				k := key()
				gotV, got := a.Lookup(a.SetOf(k), k)
				wantV, want := ref.lookup(k)
				if got != want || gotV != wantV {
					t.Fatalf("op %d: Lookup(%#x) = %#x,%v; reference %#x,%v", op, k, gotV, got, wantV, want)
				}
			case r < 44:
				k, v := key(), rng.Uint64()
				a.Insert(a.SetOf(k), k, v)
				ref.insert(k, v)
			case r < 56:
				// Refresh a resident key with a new value.
				live := a.Keys(rng.Intn(sets))
				if len(live) == 0 {
					continue
				}
				k, v := live[rng.Intn(len(live))], rng.Uint64()
				a.Insert(a.SetOf(k), k, v)
				ref.insert(k, v)
			default:
				k := key()
				a.Invalidate(a.SetOf(k), k)
				ref.invalidate(k)
			}
			live := 0
			for s := 0; s < sets; s++ {
				got, want := a.Keys(s), ref.recencyOrder(s)
				if !slices.Equal(got, want) {
					t.Fatalf("op %d (%d sets x %d ways): set %d holds %#x, reference %#x", op, sets, ways, s, got, want)
				}
				live += len(want)
			}
			if a.Live() != live {
				t.Fatalf("op %d (%d sets x %d ways): Live() = %d, reference %d", op, sets, ways, a.Live(), live)
			}
		}
	})
}
