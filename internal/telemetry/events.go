package telemetry

import (
	"encoding/json"
	"sync"
)

// This file is live campaign telemetry: a Hub that fans per-unit
// completion events out to any number of subscribers (the HTTP /events
// SSE endpoint, tests), with sequence numbers and full-history replay so
// a late subscriber sees the whole campaign in order, and folds the same
// events into the running CampaignStats behind /stats and the stderr
// heartbeat. The Hub holds no wall-clock state and every publish-side method is a
// no-op on a nil receiver, so campaigns run without telemetry pay one
// pointer compare.

// TreeNode is one flattened attribution-tree node on the wire: the
// node's path from the root, its counter mass, and its share of the
// nearest same-domain ancestor. The simulator side (internal/topdown)
// projects its trees into this shape; keeping the type here lets the
// streaming layer stay ignorant of how trees are built.
type TreeNode struct {
	Path  string  `json:"path"`
	Value float64 `json:"value"`
	Share float64 `json:"share"`
}

// UnitEvent is one run unit's completion announcement: identity,
// headline metrics and counter deltas, the campaign progress counters
// at publish time, and the unit's flattened attribution tree. It is the
// only way per-unit data reaches the live view.
type UnitEvent struct {
	// Seq is the hub-assigned publish sequence number (1-based).
	// Subscribers see strictly increasing Seq, replay included.
	Seq uint64 `json:"seq"`
	// Unit is the campaign-unique unit name.
	Unit string `json:"unit"`
	// CPI / WCPI are the unit's headline metrics.
	CPI  float64 `json:"cpi"`
	WCPI float64 `json:"wcpi"`
	// Cycles / Instructions / WalkCycles are the unit's measured-region
	// deltas (WalkCycles sums the load and store walk durations).
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	WalkCycles   uint64 `json:"walk_cycles"`
	// IdentitiesChecked / IdentitiesViolated are the refute checker's
	// outcome on the unit (zero when refute is off).
	IdentitiesChecked  uint64 `json:"identities_checked"`
	IdentitiesViolated uint64 `json:"identities_violated"`
	// UnitsDone / UnitsTotal / BusyWorkers snapshot campaign progress
	// and worker utilization at publish time. Publish stamps them, so
	// UnitsDone always equals Seq.
	UnitsDone   uint64 `json:"units_done"`
	UnitsTotal  uint64 `json:"units_total"`
	BusyWorkers int64  `json:"busy_workers"`
	// Tree is the unit's flattened attribution tree (zero-valued
	// subtrees elided).
	Tree []TreeNode `json:"tree,omitempty"`
}

// JSON renders the event as one JSON object (no trailing newline).
func (e UnitEvent) JSON() []byte { return mustJSON(e) }

// CampaignStats is the campaign fold: every published UnitEvent plus
// the scheduler's progress signals, summed. /stats serves it and the
// stderr heartbeat prints it; field order is fixed by the struct, so
// heartbeats diff cleanly.
type CampaignStats struct {
	// UnitsStarted / UnitsDone count run units entering / leaving their
	// measured regions; UnitsTotal is the scheduled unit count announced
	// so far and Progress is done/total (0 until a total is known).
	UnitsStarted uint64  `json:"units_started"`
	UnitsDone    uint64  `json:"units_done"`
	UnitsTotal   uint64  `json:"units_total"`
	Progress     float64 `json:"progress"`
	// BusyWorkers is the number of scheduler workers currently running a
	// unit (worker occupancy).
	BusyWorkers int64 `json:"busy_workers"`
	// Instructions / Cycles / WalkCycles aggregate the completed units'
	// counter deltas.
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	WalkCycles   uint64 `json:"walk_cycles"`
	// WCPI is the campaign-aggregate walk cycles per instruction over
	// completed units — the paper's headline proxy, live.
	WCPI float64 `json:"wcpi"`
	// IdentitiesChecked / IdentitiesViolated aggregate the refute
	// checker's per-unit results (zero when -refute is off). A non-zero
	// violation count mid-campaign means a counter identity is breaking
	// right now; the final report says where.
	IdentitiesChecked  uint64 `json:"identities_checked"`
	IdentitiesViolated uint64 `json:"identities_violated"`
	// CyclesPerSec is the simulated-cycles-per-wall-second throughput
	// gauge, updated by the CLI heartbeat's ObserveThroughput calls
	// (zero until two observations land). Clients derive an ETA from it
	// and the remaining progress.
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// JSON renders the stats as one JSONL heartbeat line (no trailing
// newline).
func (s CampaignStats) JSON() []byte { return mustJSON(s) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// CampaignStats and UnitEvent are plain numbers and strings;
		// Marshal cannot fail.
		panic(err)
	}
	return b
}

// subscriberBuffer bounds one subscriber's unread backlog. A consumer
// that falls further behind than this misses the newest events;
// campaign publishers never block on a slow reader.
const subscriberBuffer = 4096

// Hub is the live-campaign sink. Publish assigns sequence numbers,
// folds the event into the running CampaignStats and appends it to the
// replay history; Subscribe delivers the full history first, then live events,
// all in Seq order.
type Hub struct {
	mu      sync.Mutex
	history []UnitEvent
	subs    map[chan UnitEvent]struct{}
	// fold holds the running totals; Stats derives Progress and WCPI
	// from them on read.
	//
	//atlint:guardedby mu
	fold CampaignStats
	// lastObsNanos / lastObsCycles are the previous throughput
	// observation's wall-clock nanos and cycle total.
	lastObsNanos  int64
	lastObsCycles uint64
}

// NewHub creates an enabled hub.
func NewHub() *Hub { return &Hub{subs: make(map[chan UnitEvent]struct{})} }

// Publish folds one completed unit into the running totals, stamps ev
// with its sequence number and the campaign progress, stores it for
// replay, and offers it to every live subscriber. Nil-safe; never
// blocks (a full subscriber buffer drops the event for that subscriber
// only).
func (h *Hub) Publish(ev UnitEvent) {
	if h == nil {
		return
	}
	h.mu.Lock()
	f := &h.fold
	f.UnitsDone++
	f.Instructions += ev.Instructions
	f.Cycles += ev.Cycles
	f.WalkCycles += ev.WalkCycles
	f.IdentitiesChecked += ev.IdentitiesChecked
	f.IdentitiesViolated += ev.IdentitiesViolated
	ev.Seq = uint64(len(h.history) + 1)
	ev.UnitsDone, ev.UnitsTotal, ev.BusyWorkers = f.UnitsDone, f.UnitsTotal, f.BusyWorkers
	h.history = append(h.history, ev)
	//atlint:ordered fan-out order is unobservable: every subscriber receives every event, and each channel carries them in Seq order
	for ch := range h.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	h.mu.Unlock()
}

// UnitStarted marks one run unit entering its measured region.
func (h *Hub) UnitStarted() { h.add(1, 0, 0) }

// AddUnitsTotal announces n scheduled run units. The scheduler calls it
// once per campaign dispatch, so units_total ratchets up as experiments
// enqueue work and progress = done/total is meaningful mid-campaign.
func (h *Hub) AddUnitsTotal(n uint64) { h.add(0, n, 0) }

// WorkerBusy marks one scheduler worker as occupied by a unit.
func (h *Hub) WorkerBusy() { h.add(0, 0, 1) }

// WorkerIdle marks one scheduler worker as free again.
func (h *Hub) WorkerIdle() { h.add(0, 0, -1) }

// add folds the scheduler's non-unit signals. Nil-safe.
func (h *Hub) add(started, total uint64, busy int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.fold.UnitsStarted += started
	h.fold.UnitsTotal += total
	h.fold.BusyWorkers += busy
	h.mu.Unlock()
}

// ObserveThroughput updates the simulated-cycles/sec gauge from one
// wall-clock observation. nowNanos is the caller's clock reading (wall
// time is confined to cmd/*; it enters here as a plain integer). The
// first observation only seeds the baseline. Nil-safe.
func (h *Hub) ObserveThroughput(nowNanos int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	prevNanos, prevCycles := h.lastObsNanos, h.lastObsCycles
	h.lastObsNanos, h.lastObsCycles = nowNanos, h.fold.Cycles
	if prevNanos == 0 || nowNanos <= prevNanos {
		return
	}
	h.fold.CyclesPerSec = float64(h.fold.Cycles-prevCycles) / (float64(nowNanos-prevNanos) / 1e9)
}

// Stats returns one consistent snapshot of the fold (zero value on a nil
// hub).
func (h *Hub) Stats() CampaignStats {
	if h == nil {
		return CampaignStats{}
	}
	h.mu.Lock()
	s := h.fold
	h.mu.Unlock()
	if s.Instructions > 0 {
		s.WCPI = float64(s.WalkCycles) / float64(s.Instructions)
	}
	if s.UnitsTotal > 0 {
		s.Progress = float64(s.UnitsDone) / float64(s.UnitsTotal)
	}
	return s
}

// Subscribe registers a new subscriber and returns its event channel
// plus a cancel function. The channel first replays the full history
// in order, then carries live events; cancel unregisters and closes
// it. The replay and the live tail never reorder or duplicate: both
// happen under the hub lock.
func (h *Hub) Subscribe() (<-chan UnitEvent, func()) {
	ch := make(chan UnitEvent, subscriberBuffer)
	h.mu.Lock()
	for _, ev := range h.history {
		if len(ch) == cap(ch) {
			break // pathological: history alone overflows the buffer
		}
		ch <- ev
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			delete(h.subs, ch)
			h.mu.Unlock()
			close(ch)
		})
	}
	return ch, cancel
}

// Subscribers reports the live subscriber count (tests; the SSE
// disconnect path is verified through it).
func (h *Hub) Subscribers() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// History returns a copy of every published event, in Seq order.
func (h *Hub) History() []UnitEvent {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]UnitEvent, len(h.history))
	copy(out, h.history)
	return out
}
