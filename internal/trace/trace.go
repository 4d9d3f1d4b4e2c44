// Package trace records and replays workload event streams. A trace
// captures everything a workload asked of the machine — allocations,
// setup-phase prefaults, loads, stores, instruction batches, branches —
// so a recorded run can be replayed bit-identically on a fresh machine
// (or a differently configured one: a what-if TLB study over a production
// trace, the proxy-workload use case of the paper's §II-B).
//
// The format is a byte stream: a 4-byte magic, then one event per record:
// a kind byte followed by uvarint operands.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"atscale/internal/arch"
	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// magic identifies trace files (and their format version).
var magic = [4]byte{'a', 't', 't', '1'}

// Kind identifies one event record.
type Kind uint8

// Event kinds.
const (
	// KLoad is a retired load; operand: va.
	KLoad Kind = iota + 1
	// KStore is a retired store; operand: va.
	KStore
	// KOps is a non-memory instruction batch; operand: n.
	KOps
	// KBranchTaken is a taken branch; operand: pc.
	KBranchTaken
	// KBranchNotTaken is a not-taken branch; operand: pc.
	KBranchNotTaken
	// KMalloc is an allocation; operands: returned va, size.
	KMalloc
	// KPrefault is a setup-phase page materialization; operand: page va.
	KPrefault
	// KSteady marks where the measured region starts; no operands.
	KSteady
)

// Event is one decoded trace record.
type Event struct {
	Kind Kind
	// A is the first operand (va, pc, or n by Kind).
	A uint64
	// B is the second operand (KMalloc's size).
	B uint64
}

// Writer encodes events to a stream. It implements machine.Tracer, so
// recording is:
//
//	w := trace.NewWriter(f)
//	m.SetTracer(w)
//	... run the workload ...
//	m.SetTracer(nil)
//	w.Flush()
type Writer struct {
	w *bufio.Writer
	//atlint:noreset sticky first-error contract: Flush and Err report it; clearing it would hide a failed trace
	err error
	//atlint:noreset lifetime event count behind Events; Flush drains buffers, it does not end the trace
	n uint64
}

// NewWriter starts a trace on out.
func NewWriter(out io.Writer) *Writer {
	w := &Writer{w: bufio.NewWriterSize(out, 1<<20)}
	_, w.err = w.w.Write(magic[:])
	return w
}

// Events returns how many events have been written.
func (w *Writer) Events() uint64 { return w.n }

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

// Flush drains buffered records to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

func (w *Writer) emit(k Kind, operands ...uint64) {
	if w.err != nil {
		return
	}
	var buf [1 + 2*binary.MaxVarintLen64]byte
	buf[0] = byte(k)
	n := 1
	for _, op := range operands {
		n += binary.PutUvarint(buf[n:], op)
	}
	_, w.err = w.w.Write(buf[:n])
	w.n++
}

// Load implements machine.Tracer.
func (w *Writer) Load(va arch.VAddr) { w.emit(KLoad, uint64(va)) }

// Store implements machine.Tracer.
func (w *Writer) Store(va arch.VAddr) { w.emit(KStore, uint64(va)) }

// Ops implements machine.Tracer.
func (w *Writer) Ops(n uint64) { w.emit(KOps, n) }

// Branch implements machine.Tracer.
func (w *Writer) Branch(pc uint64, taken bool) {
	if taken {
		w.emit(KBranchTaken, pc)
	} else {
		w.emit(KBranchNotTaken, pc)
	}
}

// Malloc implements machine.Tracer.
func (w *Writer) Malloc(va arch.VAddr, n uint64) { w.emit(KMalloc, uint64(va), n) }

// Prefault implements machine.Tracer.
func (w *Writer) Prefault(page arch.VAddr) { w.emit(KPrefault, uint64(page)) }

// Reader decodes events from a stream.
type Reader struct {
	r *bufio.Reader
}

// NewReader opens a trace, validating the magic.
func NewReader(in io.Reader) (*Reader, error) {
	r := &Reader{r: bufio.NewReaderSize(in, 1<<20)}
	var got [4]byte
	if _, err := io.ReadFull(r.r, got[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if got != magic {
		return nil, fmt.Errorf("trace: bad magic %q", got[:])
	}
	return r, nil
}

// Next decodes one event; it returns io.EOF at a clean end of trace.
func (r *Reader) Next() (Event, error) {
	kb, err := r.r.ReadByte()
	if err != nil {
		return Event{}, err // io.EOF passes through
	}
	e := Event{Kind: Kind(kb)}
	switch e.Kind {
	case KLoad, KStore, KOps, KBranchTaken, KBranchNotTaken, KPrefault:
		if e.A, err = binary.ReadUvarint(r.r); err != nil {
			return Event{}, truncated(err)
		}
	case KMalloc:
		if e.A, err = binary.ReadUvarint(r.r); err != nil {
			return Event{}, truncated(err)
		}
		if e.B, err = binary.ReadUvarint(r.r); err != nil {
			return Event{}, truncated(err)
		}
	case KSteady:
	default:
		return Event{}, fmt.Errorf("trace: unknown event kind %d", kb)
	}
	return e, nil
}

func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Replay feeds a recorded trace to a machine. Allocations are re-executed
// and verified to land at their recorded addresses (the machine's virtual
// allocator is deterministic); prefaults re-materialize setup-phase pages
// quietly; KSteady is skipped; everything else retires as it did when
// recorded. maxEvents bounds the replay (0 = entire trace). It returns
// the number of events replayed.
func Replay(m *machine.Machine, in io.Reader, maxEvents uint64) (uint64, error) {
	r, err := NewReader(in)
	if err != nil {
		return 0, err
	}
	n, _, err := play(m, r, maxEvents, false)
	return n, err
}

// play replays r's events on m until the trace ends, n reaches maxEvents
// (0: no bound) or, with toSteady set, it reads KSteady, which it reports.
func play(m *machine.Machine, r *Reader, maxEvents uint64, toSteady bool) (n uint64, steady bool, err error) {
	for ; maxEvents == 0 || n < maxEvents; n++ {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			return n, false, nil
		}
		if err != nil {
			return n, false, err
		}
		switch e.Kind {
		case KLoad:
			m.Load64(arch.VAddr(e.A))
		case KStore:
			m.Store64(arch.VAddr(e.A), 0)
		case KOps:
			m.Ops(e.A)
		case KBranchTaken:
			m.Branch(e.A, true)
		case KBranchNotTaken:
			m.Branch(e.A, false)
		case KMalloc:
			va, err := m.Malloc(e.B)
			if err != nil {
				return n, false, fmt.Errorf("trace: replaying malloc(%d): %w", e.B, err)
			}
			if va != arch.VAddr(e.A) {
				return n, false, fmt.Errorf("trace: malloc replayed at %#x, recorded %#x (allocator drift)",
					uint64(va), e.A)
			}
		case KPrefault:
			m.Prefault(arch.VAddr(e.A))
		case KSteady:
			if toSteady {
				return n, true, nil
			}
		}
	}
	return n, false, nil
}

// Record returns an unregistered copy of spec that records its unit into
// w: Build installs w as the machine's tracer, and the instance writes
// KSteady where the measured region starts and removes the tracer when
// it ends. Flush w after the unit.
func Record(spec *workloads.Spec, w *Writer) *workloads.Spec {
	rec := *spec
	rec.Build = func(m *machine.Machine, param uint64) (workloads.Instance, error) {
		m.SetTracer(w)
		inst, err := spec.Build(m, param)
		return recording{inst, m, w}, err
	}
	return &rec
}

type recording struct {
	workloads.Instance
	m *machine.Machine
	w *Writer
}

func (r recording) Run(budget uint64) {
	r.w.emit(KSteady)
	r.Instance.Run(budget)
	r.m.SetTracer(nil)
}

// Player replays one trace recorded through Record as a workload unit.
type Player struct {
	r *Reader
	m *machine.Machine
	// Err is the error the measured region's replay met, if any.
	Err error
}

// NewPlayer opens a trace for replay, validating the magic.
func NewPlayer(in io.Reader) (*Player, error) {
	r, err := NewReader(in)
	return &Player{r: r}, err
}

// Spec returns the unregistered workload "replay-name" that replays the
// trace once. Its Build replays the recorded set-up, the events before
// KSteady, and fails on a trace without one; its Run replays the rest,
// the measured region, whatever the budget.
func (p *Player) Spec(name string) *workloads.Spec {
	return &workloads.Spec{Program: "replay", Generator: name,
		Build: func(m *machine.Machine, _ uint64) (workloads.Instance, error) {
			p.m = m
			if _, steady, err := play(m, p.r, 0, true); err != nil || steady {
				return p, err
			}
			return nil, errors.New("trace: no KSteady event marks the measured region")
		}}
}

// Run replays the measured region; it implements workloads.Instance.
func (p *Player) Run(uint64) { _, _, p.Err = play(p.m, p.r, 0, false) }
