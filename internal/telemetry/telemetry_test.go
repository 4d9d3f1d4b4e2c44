package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety: every recording entry point must be a no-op on nil
// receivers — the disabled-tracer contract the hot paths rely on.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	p := tr.Process("unit")
	if p != nil {
		t.Fatalf("nil tracer returned non-nil process")
	}
	trk := p.Track("walker")
	if trk != nil {
		t.Fatalf("nil process returned non-nil track")
	}
	trk.Sync(10)
	trk.Advance(5)
	trk.Begin("walk")
	trk.Slice("PT", 4, "loc", "L1")
	trk.Instant("mispredict")
	trk.Counter("wcpi", 0.5)
	trk.EndArg("outcome", "ok")
	trk.End()
	if trk.Now() != 0 {
		t.Errorf("nil track Now = %d", trk.Now())
	}
	tr.FinishUnit(Unit{Name: "unit"})
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatalf("nil tracer export: %v", err)
	}
	if _, err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("nil tracer export invalid: %v", err)
	}

	var h *Hub
	h.UnitStarted()
	h.Publish(UnitEvent{Instructions: 1, Cycles: 2, WalkCycles: 3})
	h.WorkerBusy()
	h.WorkerIdle()
	if s := h.Stats(); s != (CampaignStats{}) {
		t.Errorf("nil hub stats = %+v", s)
	}
}

// TestTrackClockDomain: Sync only moves forward, Slice advances the
// cursor by its duration.
func TestTrackClockDomain(t *testing.T) {
	trk := &Track{name: "walker"}
	trk.Sync(100)
	if trk.Now() != 100 {
		t.Fatalf("Now = %d after Sync(100)", trk.Now())
	}
	trk.Slice("PT", 7, "loc", "L2")
	if trk.Now() != 107 {
		t.Fatalf("Now = %d after 7-cycle slice", trk.Now())
	}
	trk.Sync(50) // backwards: must be ignored
	if trk.Now() != 107 {
		t.Fatalf("Sync moved the cursor backwards to %d", trk.Now())
	}
}

// buildTrace records a small two-unit campaign timeline.
func buildTrace() *Tracer {
	tr := New()
	for _, unit := range []string{"unit-b", "unit-a"} { // reverse order on purpose
		p := tr.Process(unit)
		w := p.Track("walker")
		w.Sync(10)
		w.Begin("walk")
		w.Slice("PML4", 6, "loc", "L1")
		w.Slice("PT", 40, "loc", "DRAM")
		w.EndArg("outcome", "ok")
		s := p.Track("speculation")
		s.Sync(30)
		s.Instant("mispredict")
		tr.FinishUnit(Unit{Name: unit, Cycles: 100, Stats: []UnitStat{{Name: "wcpi", Val: 0.25}}})
	}
	return tr
}

// TestExportValidates: the exporter's output passes the structural
// validator and counts what was recorded.
func TestExportValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace().Export(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := Validate(buf.Bytes())
	if err != nil {
		t.Fatalf("export failed validation: %v\n%s", err, buf.String())
	}
	if stats.Spans != 2 || stats.Instants != 2 {
		t.Errorf("stats = %+v, want 2 spans and 2 instants", stats)
	}
	// Two units on the campaign track plus 2x2 walker slices.
	if stats.Slices != 6 {
		t.Errorf("slices = %d, want 6 (2 unit tiles + 4 walk levels)", stats.Slices)
	}
	if stats.Counters != 4 { // wcpi at both boundaries of both units
		t.Errorf("counters = %d, want 4", stats.Counters)
	}
}

// TestTrackPin: Pin records explicit-range slices without breaking lane
// monotonicity — several pins may cover the same range (one per
// violated identity), a start behind the cursor clamps to it, and a
// pinned track still exports through a validating timeline.
func TestTrackPin(t *testing.T) {
	var nilTrack *Track
	nilTrack.Pin("x", 0, 10, "", "") // nil-safe like every hook

	tr := New()
	p := tr.Process("unit")
	trk := p.Track("refute")
	trk.Sync(100)
	trk.Pin("violated: a", 100, 500, "detail", "l=1 r=2")
	trk.Pin("violated: b", 100, 500, "detail", "l=3 r=4") // same range again
	trk.Pin("late", 50, 80, "", "")                       // start behind cursor: clamps
	ev := trk.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3", len(ev))
	}
	if ev[0].Ts != 100 || ev[0].Dur != 400 || ev[1].Ts != 100 || ev[1].Dur != 400 {
		t.Errorf("pinned ranges wrong: %+v %+v", ev[0], ev[1])
	}
	if ev[2].Ts != 100 || ev[2].Dur != 0 {
		t.Errorf("clamped pin = %+v, want ts=100 dur=0", ev[2])
	}
	tr.FinishUnit(Unit{Name: "unit", Cycles: 600})
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("pinned timeline fails validation: %v", err)
	}
}

// TestExportDeterministicOrder: units recorded in any order export in
// sorted-name order with serial-equivalent offsets, so two tracers fed
// the same data in different completion orders export identical bytes.
func TestExportDeterministicOrder(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildTrace().Export(&a); err != nil {
		t.Fatal(err)
	}
	tr := New()
	for _, unit := range []string{"unit-a", "unit-b"} { // opposite insertion order
		p := tr.Process(unit)
		w := p.Track("walker")
		w.Sync(10)
		w.Begin("walk")
		w.Slice("PML4", 6, "loc", "L1")
		w.Slice("PT", 40, "loc", "DRAM")
		w.EndArg("outcome", "ok")
		s := p.Track("speculation")
		s.Sync(30)
		s.Instant("mispredict")
		tr.FinishUnit(Unit{Name: unit, Cycles: 100, Stats: []UnitStat{{Name: "wcpi", Val: 0.25}}})
	}
	if err := tr.Export(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("export depends on recording order:\n--- a ---\n%s\n--- b ---\n%s", a.String(), b.String())
	}
	// unit-b tiles after unit-a: its walker events shift by unit-a's
	// 100-cycle duration.
	if !strings.Contains(a.String(), `"name":"unit-b","ph":"X","ts":100`) {
		t.Errorf("unit-b not tiled at ts=100:\n%s", a.String())
	}
}

// TestExportIsChromeTraceJSON: the document parses as JSON with the
// traceEvents array and pid/tid/ph fields Perfetto expects.
func TestExportIsChromeTraceJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace().Export(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	names := 0
	for _, e := range doc.TraceEvents {
		if e["ph"] == "M" {
			names++
			continue
		}
		if _, ok := e["pid"]; !ok {
			t.Fatalf("event missing pid: %v", e)
		}
		if e["ph"] == "i" && e["s"] != "t" {
			t.Errorf("instant without thread scope: %v", e)
		}
	}
	if names < 3 {
		t.Errorf("only %d metadata name events", names)
	}
}

// TestValidateRejectsUnmatchedBegin: a Begin with no End must fail.
func TestValidateRejectsUnmatchedBegin(t *testing.T) {
	doc := `{"traceEvents":[{"name":"walk","ph":"B","ts":0,"pid":2,"tid":1}]}`
	if _, err := Validate([]byte(doc)); err == nil {
		t.Fatal("unmatched Begin validated")
	}
}

// TestValidateRejectsEndWithoutBegin.
func TestValidateRejectsEndWithoutBegin(t *testing.T) {
	doc := `{"traceEvents":[{"name":"","ph":"E","ts":5,"pid":2,"tid":1}]}`
	if _, err := Validate([]byte(doc)); err == nil {
		t.Fatal("End without Begin validated")
	}
}

// TestValidateRejectsEscapingSlice: an X slice reaching past its
// enclosing span's end must fail.
func TestValidateRejectsEscapingSlice(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"walk","ph":"B","ts":0,"pid":2,"tid":1},
		{"name":"PT","ph":"X","ts":5,"dur":20,"pid":2,"tid":1},
		{"name":"","ph":"E","ts":10,"pid":2,"tid":1}]}`
	if _, err := Validate([]byte(doc)); err == nil {
		t.Fatal("slice escaping its parent span validated")
	}
}

// TestValidateRejectsBackwardsTime.
func TestValidateRejectsBackwardsTime(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"a","ph":"i","ts":10,"pid":2,"tid":1},
		{"name":"b","ph":"i","ts":5,"pid":2,"tid":1}]}`
	if _, err := Validate([]byte(doc)); err == nil {
		t.Fatal("backwards timestamps validated")
	}
}

// TestHubStats: published units fold into the counters, WCPI derives
// from them, and the scheduler signals land beside them.
func TestHubStats(t *testing.T) {
	h := NewHub()
	h.UnitStarted()
	h.WorkerBusy()
	h.Publish(UnitEvent{Instructions: 1000, Cycles: 2000, WalkCycles: 250})
	h.UnitStarted()
	h.Publish(UnitEvent{Instructions: 1000, Cycles: 1000, WalkCycles: 150})
	h.WorkerIdle()
	s := h.Stats()
	if s.UnitsStarted != 2 || s.UnitsDone != 2 || s.BusyWorkers != 0 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.WCPI != 0.2 {
		t.Errorf("WCPI = %v, want 0.2", s.WCPI)
	}
	var parsed CampaignStats
	if err := json.Unmarshal(s.JSON(), &parsed); err != nil {
		t.Fatalf("heartbeat not JSON: %v", err)
	}
	if parsed != s {
		t.Errorf("JSON round-trip = %+v, want %+v", parsed, s)
	}
}

// TestHubConcurrentFold: workers publishing and signalling at once
// leave exact totals, and every event's progress equals its seq.
func TestHubConcurrentFold(t *testing.T) {
	const workers, perWorker = 8, 50
	h := NewHub()
	h.AddUnitsTotal(workers * perWorker)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.WorkerBusy()
				h.UnitStarted()
				h.Publish(UnitEvent{Instructions: 10, Cycles: 20, WalkCycles: 2, IdentitiesChecked: 1})
				_ = h.Stats()
				h.WorkerIdle()
			}
		}()
	}
	wg.Wait()
	s := h.Stats()
	const n = workers * perWorker
	if s.UnitsStarted != n || s.UnitsDone != n || s.BusyWorkers != 0 || s.Progress != 1 {
		t.Errorf("progress = %+v", s)
	}
	if s.Instructions != 10*n || s.Cycles != 20*n || s.WalkCycles != 2*n || s.IdentitiesChecked != n {
		t.Errorf("totals = %+v", s)
	}
	for _, ev := range h.History() {
		if ev.UnitsDone != ev.Seq || ev.UnitsTotal != n {
			t.Fatalf("event %d: units_done %d, units_total %d", ev.Seq, ev.UnitsDone, ev.UnitsTotal)
		}
	}
}

// TestHubIdentityResults: refute outcomes carried by unit events
// accumulate into the stats, survive the JSONL heartbeat round-trip
// under their wire names, and are nil-safe like every other hub hook.
func TestHubIdentityResults(t *testing.T) {
	var nilHub *Hub
	nilHub.Publish(UnitEvent{IdentitiesChecked: 3, IdentitiesViolated: 1}) // must not panic

	h := NewHub()
	h.Publish(UnitEvent{IdentitiesChecked: 17})
	h.Publish(UnitEvent{IdentitiesChecked: 17, IdentitiesViolated: 2})
	s := h.Stats()
	if s.IdentitiesChecked != 34 || s.IdentitiesViolated != 2 {
		t.Errorf("snapshot identities = %d/%d, want 34/2", s.IdentitiesChecked, s.IdentitiesViolated)
	}
	line := s.JSON()
	for _, key := range []string{`"identities_checked":34`, `"identities_violated":2`} {
		if !strings.Contains(string(line), key) {
			t.Errorf("heartbeat %s lacks %s", line, key)
		}
	}
	var parsed CampaignStats
	if err := json.Unmarshal(line, &parsed); err != nil {
		t.Fatalf("heartbeat not JSON: %v", err)
	}
	if parsed != s {
		t.Errorf("JSON round-trip = %+v, want %+v", parsed, s)
	}
}
