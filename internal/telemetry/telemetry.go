// Package telemetry is the simulator's timeline tracer and live campaign
// hub.
//
// The tracer records span and instant events whose clock is the
// *simulated cycle counter*, never wall time, so a timeline is a pure
// function of (workload, seed, config) — byte-identical across runs and
// across serial/parallel campaign schedules — and the atlint nondet
// analyzer stays clean. Events land in per-track buffers that are
// single-writer by construction (each track belongs to exactly one
// simulated machine or campaign reducer), so the hot-path append takes
// no lock; only track/process creation, which happens a handful of
// times per run unit, synchronizes on the tracer's mutex.
//
// Every recording method is a no-op on a nil receiver: a component holds
// a *Track field that stays nil until tracing is enabled, and the
// disabled hot path is one pointer compare with zero allocations (see
// walker's TestDisabledTracerZeroAllocs).
//
// Clock-domain rules (DESIGN.md §11):
//
//   - Each track carries its own monotonic cursor in simulated cycles.
//     Sync(ts) pulls a cursor forward to a shared clock (the core's
//     cycle counter) but never backwards, so per-track event order is
//     always valid even when visible time advances more slowly than
//     walker-internal time (walk cycles are charged scaled by
//     WalkVisibility).
//   - The campaign track is tiled in *serial-equivalent* time: unit i's
//     span starts at the sum of the simulated durations of all units
//     that precede it in sorted-name order. Parallel and serial
//     campaigns therefore export identical bytes; real worker
//     assignment and wall-clock occupancy are live-hub concerns and
//     never enter the timeline file.
//   - Wall time exists only in the Hub consumers (the CLIs' live
//     heartbeat loops); nothing in this package reads the host clock.
package telemetry

import "sync"

// Ph is a Chrome trace-event phase tag.
type Ph byte

// The event phases the tracer records.
const (
	// PhBegin opens a duration span (Chrome "B").
	PhBegin Ph = 'B'
	// PhEnd closes the innermost open span (Chrome "E").
	PhEnd Ph = 'E'
	// PhComplete is a self-contained slice with a duration (Chrome "X").
	PhComplete Ph = 'X'
	// PhInstant is a zero-duration mark (Chrome "i").
	PhInstant Ph = 'i'
	// PhCounter is a counter-series sample (Chrome "C").
	PhCounter Ph = 'C'
)

// Event is one recorded trace event. Name/ArgName/ArgStr are expected to
// be constant strings at the recording sites, so appending an Event
// allocates nothing beyond amortized buffer growth.
type Event struct {
	// Ts is the event timestamp in simulated cycles (track-local; the
	// exporter adds the owning process's campaign offset).
	Ts uint64
	// Dur is the slice duration (PhComplete only).
	Dur uint64
	// Ph is the event phase.
	Ph Ph
	// Name is the span/slice/instant/counter name.
	Name string
	// ArgName/ArgStr attach one string argument (empty ArgName: none).
	ArgName string
	ArgStr  string
	// ArgF is the counter value (PhCounter only).
	ArgF float64
}

// Track is one horizontal lane of the timeline: a single-writer event
// buffer plus a monotonic cycle cursor. All recording methods are
// no-ops on a nil *Track.
type Track struct {
	name   string
	now    uint64
	events []Event
}

// Name returns the track's display name.
func (t *Track) Name() string { return t.name }

// Events returns the recorded events (exporter, tests).
func (t *Track) Events() []Event { return t.events }

// Now returns the track's current cycle cursor (0 on a nil track).
func (t *Track) Now() uint64 {
	if t == nil {
		return 0
	}
	return t.now
}

// Sync pulls the cursor forward to ts; it never moves backwards, so the
// track stays monotonic when the shared clock lags track-local time.
func (t *Track) Sync(ts uint64) {
	if t == nil {
		return
	}
	if ts > t.now {
		t.now = ts
	}
}

// Advance moves the cursor forward by d cycles.
func (t *Track) Advance(d uint64) {
	if t == nil {
		return
	}
	t.now += d
}

// Begin opens a span named name at the current cursor.
func (t *Track) Begin(name string) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Ts: t.now, Ph: PhBegin, Name: name})
}

// End closes the innermost open span at the current cursor.
func (t *Track) End() {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Ts: t.now, Ph: PhEnd})
}

// EndArg closes the innermost open span, attaching one string argument
// (for example the walk outcome).
func (t *Track) EndArg(argName, argStr string) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Ts: t.now, Ph: PhEnd, ArgName: argName, ArgStr: argStr})
}

// Slice records a complete slice of dur cycles at the current cursor and
// advances the cursor past it. argName may be empty.
func (t *Track) Slice(name string, dur uint64, argName, argStr string) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Ts: t.now, Dur: dur, Ph: PhComplete, Name: name, ArgName: argName, ArgStr: argStr})
	t.now += dur
}

// Pin records a complete slice over an explicit cycle range [start,
// end] without advancing the cursor past it — several pins may cover
// the same range (the refute checker pins every violation to the
// unit's measured region). The lane stays monotonic: a start before
// the cursor is clamped to it, and the cursor moves forward to the
// (possibly clamped) start, never past the slice.
func (t *Track) Pin(name string, start, end uint64, argName, argStr string) {
	if t == nil {
		return
	}
	if start < t.now {
		start = t.now
	}
	var dur uint64
	if end > start {
		dur = end - start
	}
	t.events = append(t.events, Event{Ts: start, Dur: dur, Ph: PhComplete, Name: name, ArgName: argName, ArgStr: argStr})
	t.now = start
}

// Instant records a zero-duration mark at the current cursor.
func (t *Track) Instant(name string) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Ts: t.now, Ph: PhInstant, Name: name})
}

// Counter records a counter-series sample at the current cursor.
func (t *Track) Counter(name string, v float64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Ts: t.now, Ph: PhCounter, Name: name, ArgF: v})
}

// Process groups the tracks of one run unit (one simulated machine) or
// of the campaign reducer. The exporter assigns pids in sorted-name
// order and shifts every track by the process's campaign offset.
type Process struct {
	name   string
	offset uint64
	mu     sync.Mutex
	//atlint:guardedby mu
	tracks []*Track
}

// Name returns the process's display name.
func (p *Process) Name() string { return p.name }

// Track creates (or returns, by name) a track in the process. Creation
// locks; the returned track's recording methods do not.
func (p *Process) Track(name string) *Track {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range p.tracks {
		if t.name == name {
			return t
		}
	}
	t := &Track{name: name}
	p.tracks = append(p.tracks, t)
	return t
}

// UnitStat is one headline number annotated onto a unit span boundary.
type UnitStat struct {
	Name string
	Val  float64
}

// Unit is one completed run unit's campaign record: its simulated
// duration plus the counter snapshot annotated at its span boundaries.
type Unit struct {
	// Name identifies the unit; it must be unique within a campaign and
	// must match the unit's Process name for the exporter to place the
	// unit's detail tracks at the unit's campaign offset.
	Name string
	// Cycles is the unit's simulated duration (the measured region's
	// cycle delta).
	Cycles uint64
	// Stats are counter-snapshot annotations emitted at the unit span's
	// begin and end boundaries.
	Stats []UnitStat
}

// Tracer owns the timeline: processes, their tracks, and the campaign's
// unit records. A nil *Tracer is the disabled tracer: every method is a
// no-op returning nil, so call sites need no guards.
type Tracer struct {
	mu sync.Mutex
	//atlint:guardedby mu
	procs []*Process
	//atlint:guardedby mu
	units []Unit
}

// New creates an enabled tracer.
func New() *Tracer { return &Tracer{} }

// Process creates (or returns, by name) a process. Unit processes must
// use campaign-unique names; core.Run includes workload, param, page
// size, seed and config variant in the name for exactly that reason.
func (tr *Tracer) Process(name string) *Process {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, p := range tr.procs {
		if p.name == name {
			return p
		}
	}
	p := &Process{name: name}
	tr.procs = append(tr.procs, p)
	return p
}

// FinishUnit records a completed run unit. Safe to call concurrently
// from campaign workers; the exporter orders units by name, so the
// timeline does not depend on completion order.
func (tr *Tracer) FinishUnit(u Unit) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.units = append(tr.units, u)
}
