package tlb

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"atscale/internal/arch"
)

// refTLB is the stamp-based TLB the recency-ordered TLB replaced, kept
// as its reference model: every way carries the clock value of its last
// reference, an insert takes the set's first invalid way or else the
// way with the oldest stamp, and Flush keeps the clock running.
type refTLB struct {
	sets, ways int
	holds      [arch.NumPageSizes]bool
	data       []refWay
	clock      uint64
}

type refWay struct {
	vpn   uint64
	frame arch.PAddr
	size  arch.PageSize
	stamp uint64
}

// refInvalid marks an empty reference way.
const refInvalid = math.MaxUint64

func newRefTLB(g arch.TLBGeometry, sizes ...arch.PageSize) *refTLB {
	t := &refTLB{}
	if g.Entries == 0 {
		return t
	}
	t.sets, t.ways = g.Entries/g.Ways, g.Ways
	t.data = make([]refWay, g.Entries)
	t.flush()
	for _, s := range sizes {
		t.holds[s] = true
	}
	return t
}

func (t *refTLB) set(vpn uint64) []refWay {
	base := int(vpn%uint64(t.sets)) * t.ways
	return t.data[base : base+t.ways]
}

func (t *refTLB) lookup(va arch.VAddr) (Entry, bool) {
	if t.sets == 0 {
		return Entry{}, false
	}
	t.clock++
	for ps := arch.Page4K; ps < arch.NumPageSizes; ps++ {
		if !t.holds[ps] {
			continue
		}
		vpn := arch.PageNumber(va, ps)
		set := t.set(vpn)
		for w := range set {
			if e := &set[w]; e.vpn == vpn && e.size == ps {
				e.stamp = t.clock
				return Entry{VPN: vpn, Frame: e.frame, Size: ps}, true
			}
		}
	}
	return Entry{}, false
}

func (t *refTLB) insert(va arch.VAddr, frame arch.PAddr, ps arch.PageSize) {
	if t.sets == 0 || !t.holds[ps] {
		return
	}
	t.clock++
	vpn := arch.PageNumber(va, ps)
	set := t.set(vpn)
	victim, oldest := 0, uint64(math.MaxUint64)
	for w := range set {
		e := &set[w]
		if e.vpn == vpn && e.size == ps {
			e.frame, e.stamp = frame, t.clock
			return
		}
		if e.vpn == refInvalid {
			if oldest != 0 {
				victim, oldest = w, 0
			}
			continue
		}
		if e.stamp < oldest {
			victim, oldest = w, e.stamp
		}
	}
	set[victim] = refWay{vpn: vpn, frame: frame, size: ps, stamp: t.clock}
}

func (t *refTLB) invalidatePage(va arch.VAddr, ps arch.PageSize) {
	if t.sets == 0 || !t.holds[ps] {
		return
	}
	vpn := arch.PageNumber(va, ps)
	set := t.set(vpn)
	for w := range set {
		if e := &set[w]; e.vpn == vpn && e.size == ps {
			e.vpn, e.stamp = refInvalid, 0
		}
	}
}

func (t *refTLB) flush() {
	for i := range t.data {
		t.data[i] = refWay{vpn: refInvalid}
	}
}

func (t *refTLB) live() int {
	n := 0
	for _, e := range t.data {
		if e.vpn != refInvalid {
			n++
		}
	}
	return n
}

func (t *refTLB) reset() {
	t.flush()
	t.clock = 0
}

// recencyOrder returns the keys of set s's valid ways, newest stamp
// first.
func (t *refTLB) recencyOrder(s int) []key {
	var live []refWay
	for _, e := range t.data[s*t.ways : (s+1)*t.ways] {
		if e.vpn != refInvalid {
			live = append(live, e)
		}
	}
	slices.SortFunc(live, func(a, b refWay) int { return cmp.Compare(b.stamp, a.stamp) })
	keys := make([]key, len(live))
	for i, e := range live {
		keys[i] = key{e.vpn, e.size}
	}
	return keys
}

// sameState reports where t and the reference disagree, or "" when every
// set holds the reference's translations in recency order. Frames are
// compared by the lookups.
func (t *TLB) sameState(ref *refTLB) string {
	for s := 0; s < ref.sets; s++ {
		if got, want := t.arr.Keys(s), ref.recencyOrder(s); !slices.Equal(got, want) {
			return fmt.Sprintf("set %d holds %+v, reference %+v", s, got, want)
		}
	}
	if got, want := t.Live(), ref.live(); got != want {
		return fmt.Sprintf("%d live entries, reference %d", got, want)
	}
	return ""
}

// FuzzTLBMatchesReference drives a TLB and the stamp-based reference
// with one random Lookup/Insert/InvalidatePage/Flush/Reset stream and
// compares every result and the resident set after each op. Geometries
// run from disabled through 1-9 sets (most not powers of two) of 1-20
// ways, as a split array holding one page size or the unified array
// holding 4 KB, 2 MB and 1 GB translations.
func FuzzTLBMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(0))
	f.Add(int64(2), uint8(3), uint8(7), uint8(1))
	f.Add(int64(3), uint8(7), uint8(19), uint8(2))
	f.Add(int64(4), uint8(5), uint8(11), uint8(3))
	f.Add(int64(5), uint8(0), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, setsIn, waysIn, arrangement uint8) {
		sets, ways := int(setsIn%10), 1+int(waysIn%20)
		g := arch.TLBGeometry{Entries: sets * ways, Ways: ways}
		sizes := []arch.PageSize{arch.Page4K, arch.Page2M, arch.Page1G}
		if a := int(arrangement % 4); a < len(sizes) {
			sizes = sizes[a : a+1]
		}
		tl, ref := New(g, sizes...), newRefTLB(g, sizes...)
		rng := rand.New(rand.NewSource(seed))
		// VPNs at every size crowd into the low VAs, so 4 KB, 2 MB and
		// 1 GB translations of one address coexist.
		vpns := uint64(3*sets*ways + 2)
		va := func(ps arch.PageSize) arch.VAddr {
			off := rng.Uint64() & ps.Mask()
			return arch.VAddr(rng.Uint64()%vpns<<ps.Shift() | off)
		}
		for op := 0; op < 2000; op++ {
			ps := arch.PageSize(rng.Intn(int(arch.NumPageSizes)))
			switch r := rng.Intn(64); {
			case r == 0:
				tl.Reset()
				ref.reset()
			case r == 1:
				tl.Flush()
				ref.flush()
			case r < 28:
				v := va(ps)
				gotE, got := tl.Lookup(v)
				wantE, want := ref.lookup(v)
				if got != want || gotE != wantE {
					t.Fatalf("op %d: Lookup(%#x) = %+v,%v; reference %+v,%v", op, uint64(v), gotE, got, wantE, want)
				}
			case r < 56:
				frame := arch.PAddr(rng.Uint64() % (1 << 40) &^ ps.Mask())
				v := va(ps)
				tl.Insert(v, frame, ps)
				ref.insert(v, frame, ps)
			default:
				v := va(ps)
				tl.InvalidatePage(v, ps)
				ref.invalidatePage(v, ps)
			}
			if diff := tl.sameState(ref); diff != "" {
				t.Fatalf("op %d (%d sets x %d ways holding %v): %s", op, sets, ways, sizes, diff)
			}
		}
	})
}
