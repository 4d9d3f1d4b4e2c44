package mem

import (
	"maps"
	"slices"
	"testing"

	"atscale/internal/arch"
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

// fuzzFrame is a frame the fuzz target holds allocated.
type fuzzFrame struct {
	pa arch.PAddr
	ps arch.PageSize
}

// fuzzWordsChunks is how many chunks of the Words store the target
// writes: 16 at the start of each of its two directory groups, so writes
// collide and spares come back often.
const fuzzWordsChunks = 32

// fuzzWordsOff returns the store offset of word i of chunk c.
func fuzzWordsOff(c, i uint64) uint64 {
	c %= fuzzWordsChunks
	return c/16*groupBytes + c%16*chunkBytes + i%chunkWords*8
}

// FuzzChunkDirMatchesReference drives a two-node Phys and a Words made
// from it with a random stream of word writes, partial and whole-chunk
// runs, whole-chunk scans, frame allocations (a frame from a free list is
// zeroed), 4 KB and 2 MB frees (a 2 MB free drops its chunks to the spare
// list), and Resets of either store, and checks every read against a map
// reference. A spare chunk that is handed out without a clear when a
// write does not cover it, or a reused frame that keeps its old words,
// reads a stale word here.
func FuzzChunkDirMatchesReference(f *testing.F) {
	f.Add([]byte{
		// Words: two whole chunks, a Reset, then a partial run and a single
		// word on the spares, each chunk scanned.
		7, 3, 7, 4, 11, 9, 5, 200, 1, 6, 8, 5, 5, 6, 0, 9, 8, 6,
		// Phys: a 4 KB frame written, freed and taken back from the free
		// list, written again and scanned.
		2, 0, 0, 0, 0, 0, 0, 5, 3, 0, 2, 0, 0, 0, 0, 0, 0, 6, 4, 0, 0, 0, 0,
	})
	f.Add([]byte{
		// Phys: a 2 MB frame on node 1 written in two chunks and dropped,
		// a 4 KB frame written on a spare, the 2 MB frame taken back, a
		// Reset.
		2, 1, 1, 0, 0, 0, 0, 9, 0, 0, 3, 0, 2, 2, 0, 0, 3, 0,
		0, 0, 0, 0, 1, 4, 0, 0, 0, 0, 2, 1, 1, 1, 1, 0, 0, 9, 10,
		// Words: whole chunks in the second group, a word, a Reset, a
		// whole run and a word on the spares, reads and scans.
		7, 17, 7, 18, 5, 17, 3, 3, 11, 7, 18, 8, 17, 8, 18,
		5, 17, 100, 50, 6, 17, 1, 3, 8, 17,
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		p := NewPhysNUMA(64*arch.MB, 2)
		defer p.Release()
		w := p.NewWords()
		defer w.Release()
		w.Grow(2 * groupBytes)
		physRef := map[uint64]uint64{}
		wordsRef := map[uint64]uint64{}
		var frames []fuzzFrame
		var run [chunkWords]uint64
		seq := uint64(0)
		// val returns a fresh nonzero word, so a stale one is never
		// mistaken for zero or for a newer write.
		val := func() uint64 { seq++; return seq<<8 | 1 }
		// checkZero reads every referenced word in [lo, hi), which must
		// now read zero, and forgets it.
		checkZero := func(ref map[uint64]uint64, lo, hi uint64, read func(uint64) uint64, what string) {
			for _, a := range slices.Sorted(maps.Keys(ref)) {
				if a >= lo && a < hi {
					if got := read(a); got != 0 {
						t.Fatalf("%s: word %#x reads %#x, want 0", what, a, got)
					}
					delete(ref, a)
				}
			}
		}
		checkPhys := func(a uint64) {
			if got, want := p.Read64(arch.PAddr(a)), physRef[a]; got != want {
				t.Fatalf("Phys word %#x reads %#x, want %#x", a, got, want)
			}
		}
		checkWords := func(a uint64) {
			if got, want := w.Read64(a), wordsRef[a]; got != want {
				t.Fatalf("Words offset %#x reads %#x, want %#x", a, got, want)
			}
		}
		// physAddr returns a word address inside one of the first eight
		// chunks of a held frame, or false if none is held.
		physAddr := func(o *fuzzOps) (uint64, bool) {
			fi, c, i := o.next(), o.next(), o.next()<<8|o.next()
			if len(frames) == 0 {
				return 0, false
			}
			fr := frames[fi%uint64(len(frames))]
			c %= min(8, fr.ps.Bytes()/chunkBytes)
			return uint64(fr.pa) + c*chunkBytes + i%chunkWords*8, true
		}
		readPhys := func(a uint64) uint64 { return p.Read64(arch.PAddr(a)) }
		for o := (fuzzOps{in}); len(o.b) > 0; {
			switch o.next() % 12 {
			case 0: // Phys word write
				if a, ok := physAddr(&o); ok {
					v := val()
					p.Write64(arch.PAddr(a), v)
					physRef[a] = v
				}
			case 1: // Phys word read
				if a, ok := physAddr(&o); ok {
					checkPhys(a)
				}
			case 2: // allocate a 4 KB or 2 MB frame on either node
				ps := arch.Page4K
				if o.next()&1 == 1 {
					ps = arch.Page2M
				}
				pa, err := p.AllocPageOnNode(ps, int(o.next()&1))
				if err != nil {
					continue
				}
				checkZero(physRef, uint64(pa), uint64(pa)+ps.Bytes(), readPhys, "allocated frame")
				frames = append(frames, fuzzFrame{pa, ps})
			case 3: // free a held frame; a 2 MB free drops its chunks
				if len(frames) == 0 {
					continue
				}
				i := o.next() % uint64(len(frames))
				p.FreePage(frames[i].pa, frames[i].ps)
				frames = slices.Delete(frames, int(i), int(i)+1)
			case 4: // scan a whole chunk of a held frame
				if a, ok := physAddr(&o); ok {
					for c := a &^ (chunkBytes - 1); c < a|(chunkBytes-1); c += 8 {
						checkPhys(c)
					}
				}
			case 5: // Words word write
				a := fuzzWordsOff(o.next(), o.next()<<8|o.next())
				v := val()
				w.Write64(a, v)
				wordsRef[a] = v
			case 6: // Words word read
				checkWords(fuzzWordsOff(o.next(), o.next()<<8|o.next()))
			case 7: // Words whole-chunk run
				a := fuzzWordsOff(o.next(), 0)
				for i := range run {
					run[i] = val()
					wordsRef[a+uint64(i)*8] = run[i]
				}
				w.WriteWords(a, run[:])
			case 8: // Words scan of a whole chunk
				a := fuzzWordsOff(o.next(), 0)
				for i := uint64(0); i < chunkWords; i++ {
					checkWords(a + i*8)
				}
			case 9: // Words partial run, staying inside its chunk
				c, i, n := o.next(), o.next()<<1|o.next()&1, o.next()
				i %= chunkWords
				n = 1 + n%min(chunkWords-1, chunkWords-i)
				a := fuzzWordsOff(c, i)
				for k := range n {
					run[k] = val()
					wordsRef[a+k*8] = run[k]
				}
				w.WriteWords(a, run[:n])
			case 10: // Phys Reset
				p.Reset()
				frames = frames[:0]
				checkZero(physRef, 0, ^uint64(0), readPhys, "Phys after Reset")
			case 11: // Words Reset
				w.Reset()
				checkZero(wordsRef, 0, ^uint64(0), w.Read64, "Words after Reset")
			}
		}
	})
}
