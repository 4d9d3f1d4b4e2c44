// Package reset exercises resetdiscipline: coverage through direct
// assignment, clear(), helper self-calls, field-rooted method calls,
// slice aliases, and embedded delegation; constructor immutability;
// used, stale, and misplaced //atlint:noreset exemptions; and the
// Reconfigure and Flush-fallback entry points.
package reset

import "sync"

// TLB has no Reset/Renew/Reconfigure, so Flush is the entry method.
type TLB struct {
	entries map[uint64]uint64
	hits    uint64
}

func (t *TLB) Flush() {
	clear(t.entries)
	t.hits = 0
}

func (t *TLB) Lookup(k uint64) (uint64, bool) {
	v, ok := t.entries[k]
	if ok {
		t.hits++
	}
	return v, ok
}

type Walker struct {
	mu    sync.Mutex
	tlb   *TLB
	depth int
	steps uint64 // want "field Walker.steps is mutated .by Walk. but not reinitialized by Reset"
	radix int    // mutated by no method: constructor-immutable
	//atlint:noreset the arena backing is zeroed by the allocator on reuse
	arena []byte
	gen   uint64 //atlint:noreset generation survives reuse to invalidate stale handles
}

func New(radix int) *Walker {
	return &Walker{radix: radix, arena: make([]byte, 1<<12)}
}

func (w *Walker) Walk(addr uint64) uint64 {
	w.steps++
	w.depth = int(addr) % 4
	w.arena[0] = byte(addr)
	w.gen++
	return addr % uint64(w.radix)
}

func (w *Walker) Reset() {
	w.tlb.Flush()  // method call rooted at the field covers tlb
	w.resetDepth() // helper self-call covers depth transitively
}

func (w *Walker) resetDepth() { w.depth = 0 }

// Buf resets its backing through a slice alias.
type Buf struct {
	data []uint64
	n    int
}

func (b *Buf) Put(v uint64) { b.data[b.n] = v; b.n++ }

func (b *Buf) Reset() {
	d := b.data
	for i := range d {
		d[i] = 0
	}
	b.n = 0
}

// Outer delegates part of its Reset to an embedded type.
type Inner struct{ n int }

func (i *Inner) Reset() { i.n = 0 }
func (i *Inner) Bump()  { i.n++ }

type Outer struct {
	Inner
	used bool
}

func (o *Outer) Reset() {
	o.Inner.Reset()
	o.used = false
}

func (o *Outer) Mark() { o.used = true }

// Stale carries exemptions that no longer bite.
type Stale struct {
	//atlint:noreset kept deliberately // want "unused .*noreset on Stale.count: the field is already reinitialized by Reset"
	count int
	//atlint:noreset nothing ever writes it // want "unused .*noreset on Stale.limit: no method mutates the field"
	limit int
	mu    sync.Mutex //atlint:noreset locks are not state // want "unused .*noreset on Stale.mu: sync primitives are never reset"
}

func (s *Stale) Reset()    { s.count = 0 }
func (s *Stale) Add(n int) { s.count += n }
func (s *Stale) Cap() int  { return s.limit }

// Pool is rebuilt for a new shape through Reconfigure, which must cover
// what its other methods mutate.
type Pool struct {
	shape int
	used  int // want "field Pool.used is mutated .by Take. but not reinitialized by Reconfigure"
}

func (p *Pool) Reconfigure(shape int) { p.shape = shape }
func (p *Pool) Take()                 { p.used++ }

// NoPool is never pooled: its exemption is dead weight.
type NoPool struct {
	//atlint:noreset kept warm across calls // want "unused .*noreset on NoPool.keep: NoPool has no Reset/Renew/Reconfigure method"
	keep int
}

func (n *NoPool) Touch() { n.keep++ }

//atlint:noreset floats free of any field // want "attaches to a struct field"
var counter int

var _ = counter
