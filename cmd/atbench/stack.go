package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/machine"
	"atscale/internal/mem"
	"atscale/internal/perf"
	"atscale/internal/scheme"
	"atscale/internal/tlb"
	"atscale/internal/trace"
	"atscale/internal/vm"
	"atscale/internal/walker"
)

// recording is one traced unit's event streams and what a replay needs
// to rebuild and check its machine.
type recording struct {
	// setup and steady are the events before and inside the measured
	// region, each a complete trace.
	setup, steady []byte
	sys           arch.SystemConfig
	pages         arch.PageSize
	// live is the live machine's whole counter file at the end of the
	// measured region, which a replay must reproduce.
	live perf.Counters
}

// Rungs of the translation-stack ladder, bottom up. Each adds one
// layer's public calls, in the order cpu.Core makes them for a retired
// access: tlb.Hierarchy.Lookup (plus Fill on a miss), the scheme's Walk
// on a miss, cache.Hierarchy.Access on the data address, and the
// Phys.Read64/Write64 the machine performs on it.
const (
	rungDecode = iota
	rungTLB
	rungWalker
	rungCache
	rungMem
)

var rungNames = []string{"decode", "tlb", "walker", "cache", "mem"}

// xlatSizeMask selects the page size packed into the low bits of a
// page-aligned frame address in stack.xlat.
const xlatSizeMask = 0xfff

// unitLayers is one traced unit's host-time attribution, over the
// retired accesses of its measured region.
type unitLayers struct {
	// Variant is the machine variant; Native says whether the ladder
	// climbed through the walker, cache and memory rungs. Hashed and
	// nested machines have no scheme seam, so their ladder stops at the
	// tlb rung and only the full replay covers the rest.
	Variant  string `json:"variant"`
	Native   bool   `json:"native"`
	Accesses uint64 `json:"accesses"`
	// Faults is the page faults building the ladder's address space
	// takes for the whole stream; FaultNS is the time of that build.
	Faults  uint64  `json:"faults"`
	FaultNS float64 `json:"fault_ns"`
	// L1Hits counts the cache rung's data accesses served by the L1.
	L1Hits uint64      `json:"l1_hits"`
	Ladder attribution `json:"ladder"`
	// TracedSteadyNS is the recorded run's measured region, which the
	// untraced run's measures the recording's cost against.
	TracedSteadyNS int64 `json:"traced_steady_ns"`
}

// vmOp is one address-space operation of a stream, in stream order: an
// allocation (n > 0) or the page fault on a first touch of va.
type vmOp struct {
	va arch.VAddr
	n  uint64
}

// stack is the ladder's own copy of the translation stack a unit ran
// on, built from the unit's config and fed its recorded streams.
type stack struct {
	rec    *recording
	native bool
	phys   *mem.Phys
	as     *vm.AddrSpace
	tlbs   *tlb.Hierarchy
	caches *cache.Hierarchy
	inst   scheme.Instance
	cr3    arch.PAddr
	// xlat holds, per retired access of the measured region, the frame
	// and page size of its mapping: what the tlb rung fills on a miss.
	xlat   []uint64
	ops    []vmOp
	faults uint64
	l1Hits uint64
	// sink keeps the passes' loads observable so the compiler keeps them.
	sink uint64
}

// newStack builds the ladder's stack for a recording: it replays the
// streams' allocations and first touches into a fresh address space
// (the same page-table layout the live machine built), records each
// measured access's translation, and materializes the data it touches
// so the mem rung reads committed memory as the machine did.
func newStack(rec *recording) (*stack, error) {
	s := &stack{rec: rec, native: rec.sys.PageTable != "hashed" && !rec.sys.Virt.Enabled}
	var err error
	if s.phys, s.as, err = s.addressSpace(); err != nil {
		return nil, err
	}
	frames := map[arch.VAddr]uint64{}
	for _, part := range []struct {
		stream   []byte
		measured bool
	}{{rec.setup, false}, {rec.steady, true}} {
		r, err := trace.NewReader(bytes.NewReader(part.stream))
		if err != nil {
			return nil, err
		}
		for {
			e, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			if err := s.apply(e, part.measured, frames); err != nil {
				return nil, err
			}
		}
	}
	s.tlbs = tlb.NewHierarchy(&s.rec.sys)
	if s.native {
		sch, err := scheme.ByName(s.rec.sys.Scheme)
		if err != nil {
			return nil, err
		}
		s.caches = cache.NewHierarchy(&s.rec.sys)
		if s.inst, err = sch.Build(scheme.Deps{Cfg: &s.rec.sys, Phys: s.phys, Caches: s.caches}); err != nil {
			return nil, err
		}
		s.cr3 = s.as.PageTable().Root()
	}
	return s, nil
}

// apply replays one recorded event into the ladder's address space.
// frames caches each touched 4 KB page's packed translation.
func (s *stack) apply(e trace.Event, measured bool, frames map[arch.VAddr]uint64) error {
	switch e.Kind {
	case trace.KMalloc:
		va, err := s.as.Malloc(e.B)
		if err != nil {
			return err
		}
		if va != arch.VAddr(e.A) {
			return fmt.Errorf("ladder malloc(%d) at %#x, recorded %#x", e.B, uint64(va), e.A)
		}
		s.ops = append(s.ops, vmOp{va: va, n: e.B})
	case trace.KPrefault, trace.KLoad, trace.KStore:
		va := arch.VAddr(e.A)
		page := arch.PageBase(va, arch.Page4K)
		x, ok := frames[page]
		if !ok {
			var err error
			if x, err = s.translate(va); err != nil {
				return err
			}
			frames[page] = x
		}
		if e.Kind == trace.KPrefault || !measured {
			return nil
		}
		s.xlat = append(s.xlat, x)
		if s.native {
			s.phys.Write64(arch.PAddr(x&^xlatSizeMask)+arch.PAddr(uint64(va)&arch.PageSize(x&xlatSizeMask).Mask()), 0)
		}
	}
	return nil
}

// addressSpace returns fresh physical memory and an empty address space
// shaped like the live machine's (nested and hashed units get a native
// radix space: the ladder only needs their translations).
func (s *stack) addressSpace() (*mem.Phys, *vm.AddrSpace, error) {
	nodes := 1
	if s.native {
		nodes = s.rec.sys.NUMA.EffectiveNodes()
	}
	phys := mem.NewPhysNUMA(s.rec.sys.PhysMemBytes, nodes)
	as, err := vm.NewAddrSpaceDepth(phys, s.rec.pages, s.rec.sys.PagingLevels)
	return phys, as, err
}

// translate maps va, faulting it in on its first touch, and returns its
// mapping packed as frame|size.
func (s *stack) translate(va arch.VAddr) (uint64, error) {
	pa, ps, ok := s.as.PageTable().Lookup(va)
	if !ok {
		if _, err := s.as.HandleFault(va); err != nil {
			return 0, err
		}
		s.ops = append(s.ops, vmOp{va: va})
		s.faults++
		if pa, ps, ok = s.as.PageTable().Lookup(va); !ok {
			return 0, fmt.Errorf("ladder fault did not map %#x", uint64(va))
		}
	}
	return uint64(pa-arch.PAddr(uint64(va)&ps.Mask())) | uint64(ps), nil
}

// buildNS times one rebuild of the address space from the recorded
// operations: every vm.AddrSpace.Malloc and HandleFault the streams
// need, on fresh memory.
func (s *stack) buildNS() (float64, error) {
	_, as, err := s.addressSpace()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, op := range s.ops {
		if op.n > 0 {
			_, err = as.Malloc(op.n)
		} else {
			_, err = as.HandleFault(op.va)
		}
		if err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)), nil
}

// rungs lists the ladder's layers for this stack.
func (s *stack) rungs() []string {
	if s.native {
		return rungNames
	}
	return rungNames[:rungWalker]
}

// prepare returns every layer to its just-built state.
func (s *stack) prepare(int) {
	s.tlbs.Reset()
	if s.native {
		s.caches.Reset()
		s.inst.Reset()
	}
}

// pass replays the measured region's retired accesses through the layers
// up to rung and returns the number of calls made into that rung's layer.
func (s *stack) pass(rung int) uint64 {
	r, err := trace.NewReader(bytes.NewReader(s.rec.steady))
	if err != nil {
		return 0 // newStack already read this stream
	}
	var calls, acc, l1Hits uint64
	i := 0
	for {
		e, err := r.Next()
		if err != nil {
			break
		}
		if e.Kind != trace.KLoad && e.Kind != trace.KStore {
			continue
		}
		va := arch.VAddr(e.A)
		x := s.xlat[i]
		i++
		if rung == rungDecode {
			acc += x
			continue
		}
		var frame arch.PAddr
		var ps arch.PageSize
		switch res := s.tlbs.Lookup(va); {
		case res.Level != tlb.Miss:
			frame, ps = res.Entry.Frame, res.Entry.Size
		case rung == rungTLB:
			frame, ps = arch.PAddr(x&^xlatSizeMask), arch.PageSize(x&xlatSizeMask)
			s.tlbs.Fill(va, frame, ps)
		default:
			wr := s.inst.Walk(va, s.cr3, walker.NoBudget)
			frame, ps = wr.Frame, wr.Size
			s.tlbs.Fill(va, frame, ps)
			if rung == rungWalker {
				calls++
			}
		}
		if rung == rungTLB {
			calls++
			continue
		}
		if rung == rungWalker {
			continue
		}
		pa := frame + arch.PAddr(uint64(va)&ps.Mask())
		if _, loc := s.caches.Access(pa); rung == rungCache {
			calls++
			if loc == cache.HitL1 {
				l1Hits++
			}
			continue
		}
		if e.Kind == trace.KLoad {
			acc += s.phys.Read64(pa)
		} else {
			s.phys.Write64(pa, 0)
		}
		calls++
	}
	s.sink += acc
	if rung == rungCache {
		s.l1Hits = l1Hits
	}
	return calls
}

// maxLadderReps caps the repetitions of one unit's ladder.
const maxLadderReps = 5

// attributeUnit replays a traced unit's measured region into a machine
// brought to the state the live machine had at its start, checks that
// the replay reproduces the live counters exactly, and climbs the layer
// ladder over the same accesses.
func attributeUnit(u unit, seed int64, rec *recording, spans *spanLog, id int, until time.Time) (*unitLayers, error) {
	parent := spans.begin(0, id, "attribute")
	defer spans.finish(parent)
	s, err := newStack(rec)
	if err != nil {
		return nil, fmt.Errorf("building ladder: %w", err)
	}
	var m *machine.Machine
	replay := func(stream []byte) error {
		_, err := trace.Replay(m, bytes.NewReader(stream), 0)
		return err
	}
	l := ladder{
		layers:  s.rungs(),
		prepare: s.prepare,
		pass:    s.pass,
		// The set-up events replay untimed. A poolable machine is first
		// replayed whole, untimed, and then renewed for every timed
		// replay, as the campaign pool renews machines; hashed and nested
		// machines are built fresh each time, as the campaign builds them.
		prepareFull: func() error {
			if m == nil || !m.Poolable() || !m.Renew(rec.pages, seed) {
				fresh, err := machine.New(rec.sys, rec.pages, seed)
				if err != nil {
					return err
				}
				m = fresh
				if m.Poolable() {
					if err := errors.Join(replay(rec.setup), replay(rec.steady)); err != nil {
						return err
					}
					if !m.Renew(rec.pages, seed) {
						return errors.New("renewing the replay machine failed")
					}
				}
			}
			return replay(rec.setup)
		},
		full: func() error {
			if err := replay(rec.steady); err != nil {
				return err
			}
			if m.Counters() != rec.live {
				return fmt.Errorf("replay counters differ from the live run's (digest %.12s, live %.12s)",
					digest(m.Counters()), digest(rec.live))
			}
			return nil
		},
	}
	a, err := l.climb(maxLadderReps, until, spans, parent, id)
	if err != nil {
		return nil, err
	}
	ul := &unitLayers{Variant: u.Variant, Native: s.native, Accesses: uint64(len(s.xlat)),
		Faults: s.faults, L1Hits: s.l1Hits, Ladder: a}
	builds := make([]float64, a.Reps)
	for i := range builds {
		t0 := time.Now()
		if builds[i], err = s.buildNS(); err != nil {
			return nil, err
		}
		spans.add(parent, id, "vm.build", t0, time.Now())
	}
	ul.FaultNS = slices.Min(builds)
	return ul, nil
}
