package machine

import (
	"math/rand"
	"reflect"
	"testing"

	"atscale/internal/arch"
)

// prefaultLog is a Tracer that records only the quiet prefaults, in order.
type prefaultLog struct{ pages []arch.VAddr }

func (l *prefaultLog) Load(arch.VAddr)           {}
func (l *prefaultLog) Store(arch.VAddr)          {}
func (l *prefaultLog) Ops(uint64)                {}
func (l *prefaultLog) Branch(uint64, bool)       {}
func (l *prefaultLog) Malloc(arch.VAddr, uint64) {}
func (l *prefaultLog) Prefault(page arch.VAddr)  { l.pages = append(l.pages, page) }

// pokeRun is one batched write: start word offset into the heap and word
// count.
type pokeRun struct{ off, n uint64 }

// pokeRuns covers the shapes the batched path splits differently from
// word-by-word pokes. They are written in this order, so later runs
// overwrite and extend pages earlier ones touched.
var pokeRuns = []pokeRun{
	{3, 2000},               // unaligned start, crosses three page boundaries
	{500, 12},               // ends exactly on a page boundary
	{1024, 512},             // exactly one page
	{4096 + 511, 1},         // last word of a page
	{262144 - 5, 20},        // crosses a 2 MB boundary
	{8 * 512, 0},            // empty run: touches nothing
	{586 * 512, 3 * 512},    // page-aligned, three whole pages
	{262144 + 700, 70000},   // long run over fresh pages
	{20, 100},               // rewrite inside already-written pages
	{131072 + 511, 2 + 512}, // one word, one page, one word
}

// TestPokeWordsMatchesPoke64 runs the same writes through PokeWords and
// through Poke64 word by word on two identical machines. The batched path
// must first-touch pages in the same order (same Tracer prefaults, so same
// frames and page-table pages), leave physical memory (the translation
// structures) and the data store (every word written) identical, and
// leave a short measured region counting exactly the same events.
func TestPokeWordsMatchesPoke64(t *testing.T) {
	hashed := arch.DefaultSystem()
	hashed.PageTable = "hashed"
	virt4k := arch.DefaultSystem()
	virt4k.Virt = arch.DefaultVirt()
	virt2m := virt4k
	virt2m.Virt.EPTPages = arch.Page2M
	cases := []struct {
		name   string
		cfg    arch.SystemConfig
		policy arch.PageSize
	}{
		{"native-4k", arch.DefaultSystem(), arch.Page4K},
		{"native-2m", arch.DefaultSystem(), arch.Page2M},
		{"native-1g", arch.DefaultSystem(), arch.Page1G},
		{"hashed-4k", hashed, arch.Page4K},
		{"virt-ept4k", virt4k, arch.Page4K},
		{"virt-ept2m-guest2m", virt2m, arch.Page2M},
	}
	const heap = 4 * arch.MB
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batched, err := New(tc.cfg, tc.policy, 9)
			if err != nil {
				t.Fatal(err)
			}
			single, err := New(tc.cfg, tc.policy, 9)
			if err != nil {
				t.Fatal(err)
			}
			vb, vs := batched.MustMalloc(heap), single.MustMalloc(heap)
			if vb != vs {
				t.Fatalf("heap bases differ: %#x vs %#x", vb, vs)
			}
			var lb, ls prefaultLog
			batched.SetTracer(&lb)
			single.SetTracer(&ls)

			rng := rand.New(rand.NewSource(4))
			for _, r := range pokeRuns {
				ws := make([]uint64, r.n)
				for i := range ws {
					ws[i] = rng.Uint64()
				}
				batched.PokeWords(vb+arch.VAddr(r.off*8), ws)
				for i, w := range ws {
					single.Poke64(vs+arch.VAddr((r.off+uint64(i))*8), w)
				}
			}

			if !reflect.DeepEqual(lb.pages, ls.pages) {
				t.Fatalf("prefault sequences differ:\nbatched %#x\nsingle  %#x", lb.pages, ls.pages)
			}
			if len(lb.pages) == 0 {
				t.Fatal("no page was prefaulted")
			}
			if !batched.be.phys.Equal(single.be.phys) {
				t.Fatal("physical memory differs")
			}
			if !batched.words.Equal(single.words) {
				t.Fatal("program data differs")
			}
			if b, s := batched.PageTableBytes(), single.PageTableBytes(); b != s {
				t.Fatalf("PageTableBytes %d vs %d", b, s)
			}
			if b, s := batched.MappedBytes(), single.MappedBytes(); b != s {
				t.Fatalf("MappedBytes %d vs %d", b, s)
			}

			// A short measured region over the written range and beyond:
			// loads of written words return the same data, and every
			// counter agrees.
			batched.SetTracer(nil)
			single.SetTracer(nil)
			for i := 0; i < 20000; i++ {
				off := arch.VAddr(rng.Uint64() % (heap / 8) * 8)
				if b, s := batched.Load64(vb+off), single.Load64(vs+off); b != s {
					t.Fatalf("load at +%#x: %#x vs %#x", uint64(off), b, s)
				}
				batched.Branch(uint64(off)&0xff, off&0x40 != 0)
				single.Branch(uint64(off)&0xff, off&0x40 != 0)
			}
			if b, s := batched.Counters(), single.Counters(); b != s {
				t.Fatalf("counters differ after the measured region:\n%v\n%v", b, s)
			}
		})
	}
}

// TestPokeWordsZeroAllocs gates the batched quiet path, and Poke64 on
// top of it, to zero heap allocations once the page is mapped.
func TestPokeWordsZeroAllocs(t *testing.T) {
	m := newM(t, arch.Page4K)
	va := m.MustMalloc(64 * arch.KB)
	m.Poke64(va, 1)
	ws := make([]uint64, 100)
	if n := testing.AllocsPerRun(100, func() { m.PokeWords(va+8, ws) }); n != 0 {
		t.Errorf("PokeWords allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.Poke64(va+16, 7) }); n != 0 {
		t.Errorf("Poke64 allocates %v times per call", n)
	}
}
