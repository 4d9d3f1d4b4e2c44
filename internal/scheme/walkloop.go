package scheme

import "atscale/internal/arch"

// assocDir is a deterministic set-associative directory keyed by an
// arbitrary uint64 block key with an arch.PAddr payload — the shared
// structure behind the Victima PTE-block directory (VA-block -> PT page)
// and the die-stacked DRAM cache's tag array (PA-block presence). Each
// set is kept in recency order, most recent first, with its empty ways
// at the tail, so the LRU victim is always the set's last way.
type assocDir struct {
	data []dirWay
	ways int
	sets uint64
}

// dirWay is one directory way; an empty way holds invalidKey.
type dirWay struct {
	key  uint64
	base arch.PAddr
}

// invalidKey marks an empty way. Keys are block numbers of 48-bit
// addresses, so no real key reaches it.
const invalidKey = ^uint64(0)

// newAssocDir builds a directory of at least `entries` ways total split
// into sets of `ways`. The set count is rounded up to keep geometry
// exact.
func newAssocDir(entries, ways int) *assocDir {
	if entries < ways {
		entries = ways
	}
	sets := uint64((entries + ways - 1) / ways)
	d := &assocDir{data: make([]dirWay, sets*uint64(ways)), ways: ways, sets: sets}
	d.flush()
	return d
}

// set returns key's set.
func (d *assocDir) set(key uint64) []dirWay {
	s := (key % d.sets) * uint64(d.ways)
	return d.data[s : s+uint64(d.ways)]
}

// lookup finds key's way, moving it to the front of its set on a hit.
//
//atlint:hotpath
func (d *assocDir) lookup(key uint64) (arch.PAddr, bool) {
	set := d.set(key)
	for i, w := range set {
		if w.key == key {
			copy(set[1:i+1], set[:i])
			set[0] = w
			return w.base, true
		}
	}
	return 0, false
}

// insert installs (key, base) at the front of its set, refreshing key's
// way if present and else dropping the set's last way.
//
//atlint:hotpath
func (d *assocDir) insert(key uint64, base arch.PAddr) {
	set := d.set(key)
	last := len(set) - 1
	for i, w := range set {
		if w.key == key {
			last = i
			break
		}
	}
	copy(set[1:last+1], set[:last])
	set[0] = dirWay{key: key, base: base}
}

// invalidate drops key's way if present, closing the gap so the set's
// empty ways stay at the tail.
func (d *assocDir) invalidate(key uint64) {
	set := d.set(key)
	for i, w := range set {
		if w.key == key {
			copy(set[i:], set[i+1:])
			set[len(set)-1] = dirWay{key: invalidKey}
			return
		}
	}
}

// flush empties the directory, returning it to its just-constructed
// state.
func (d *assocDir) flush() {
	for i := range d.data {
		d.data[i] = dirWay{key: invalidKey}
	}
}

// live returns the number of valid ways (test/debug helper).
func (d *assocDir) live() int {
	n := 0
	for _, w := range d.data {
		if w.key != invalidKey {
			n++
		}
	}
	return n
}
