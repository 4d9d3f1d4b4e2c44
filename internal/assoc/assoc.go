// Package assoc is the set-associative array with true LRU behind the
// simulated machine's translation caches: the TLBs, the
// paging-structure caches, the nTLB and the translation schemes'
// directories. Each set keeps its valid ways in recency order, most
// recent first, and counts them: a hit moves its way to the front, a
// fill shifts the set down one way and takes way 0, and the victim of a
// full set is its last way. Ways past a set's live count are stale and
// never read, so Flush only clears the counts.
//
// The data caches keep an array of their own (internal/cache): their
// random and NRU policies pick a physical way and keep per-way state,
// which a recency-ordered set cannot express.
package assoc

import (
	"fmt"
	"math"
)

// MaxWays is the largest associativity an Array supports. A set counts
// its live ways in 16 bits, which keeps the counts of a many-set
// directory small next to its ways.
const MaxWays = math.MaxUint16

// entry is one way: a key and its value.
type entry[K comparable, V any] struct {
	key K
	val V
}

// Array is a set-associative array mapping keys to values. Callers pick
// a key's set, usually with SetOf; an array of one set is fully
// associative. Embed an Array by value: New returns one.
type Array[K comparable, V any] struct {
	// entries holds set s at [s*ways, s*ways+ways), most recent first.
	//
	//atlint:noreset stale ways are unreachable: Flush zeroes every live count and reads never pass a set's live count
	entries []entry[K, V]
	live    []uint16 // valid ways per set
	ways    int

	// mask is sets-1 when the set count is a power of two, turning
	// SetOf into an AND; other set counts take a modulo.
	mask uint64
	pow2 bool
}

// New builds an empty array of sets × ways entries. An array with no
// ways never hits and ignores inserts.
func New[K comparable, V any](sets, ways int) Array[K, V] {
	if sets < 1 || ways < 0 || ways > MaxWays {
		panic(fmt.Sprintf("assoc: %d sets of %d ways (want >= 1 set of 0-%d ways)", sets, ways, MaxWays))
	}
	a := Array[K, V]{
		entries: make([]entry[K, V], sets*ways),
		live:    make([]uint16, sets),
		ways:    ways,
	}
	if sets&(sets-1) == 0 {
		a.pow2, a.mask = true, uint64(sets-1)
	}
	return a
}

// SetOf returns the set that the index h selects: h modulo the set
// count.
//
//atlint:hotpath
func (a *Array[K, V]) SetOf(h uint64) int {
	if a.pow2 {
		return int(h & a.mask)
	}
	return int(h % uint64(len(a.live)))
}

// Lookup finds k in set, moving its way to the front on a hit. A hit
// on way 0 changes no recency state, so way 0 is checked first and the
// rest of the set is scanned only when it misses.
//
//atlint:hotpath
func (a *Array[K, V]) Lookup(set int, k K) (V, bool) {
	s := a.set(set)
	if len(s) != 0 && s[0].key == k {
		return s[0].val, true
	}
	for w := 1; w < len(s); w++ {
		if s[w].key == k {
			e := s[w]
			copy(s[1:w+1], s[:w])
			s[0] = e
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// Insert puts k -> v at the front of set. A key already present is
// refreshed and moved to the front; otherwise a set with a free way
// grows by one and a full set drops its last way.
//
//atlint:hotpath
func (a *Array[K, V]) Insert(set int, k K, v V) {
	if a.ways == 0 {
		return
	}
	base := set * a.ways
	s := a.entries[base : base+a.ways]
	n := int(a.live[set])
	w := n
	for i := range s[:n] {
		if s[i].key == k {
			w = i
			break
		}
	}
	switch w {
	case a.ways:
		w--
	case n:
		a.live[set]++
	}
	copy(s[1:w+1], s[:w])
	s[0] = entry[K, V]{key: k, val: v}
}

// Invalidate drops k from set if present, closing the gap so the set's
// valid ways stay in recency order.
func (a *Array[K, V]) Invalidate(set int, k K) {
	s := a.set(set)
	for i := range s {
		if s[i].key == k {
			copy(s[i:], s[i+1:])
			a.live[set]--
			return
		}
	}
}

// Flush empties every set.
func (a *Array[K, V]) Flush() { clear(a.live) }

// Live returns the number of valid ways across every set.
func (a *Array[K, V]) Live() int {
	n := 0
	for _, l := range a.live {
		n += int(l)
	}
	return n
}

// Keys returns a copy of set's valid keys, most recent first
// (test/debug helper).
func (a *Array[K, V]) Keys(set int) []K {
	s := a.set(set)
	keys := make([]K, len(s))
	for i := range s {
		keys[i] = s[i].key
	}
	return keys
}

// set returns set's valid ways.
func (a *Array[K, V]) set(set int) []entry[K, V] {
	base := set * a.ways
	return a.entries[base : base+int(a.live[set])]
}
