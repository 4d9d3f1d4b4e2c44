package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// publishN pushes n fabricated unit events through the hub.
func publishN(h *Hub, n int) {
	for i := 0; i < n; i++ {
		h.Publish(UnitEvent{
			Unit:   fmt.Sprintf("unit-%d", i),
			CPI:    1.5,
			WCPI:   0.1,
			Cycles: 1000,
			Tree:   []TreeNode{{Path: "cycles", Value: 1000, Share: 1}},
		})
	}
}

// unitDone publishes one completed unit carrying the given counter
// deltas.
func unitDone(h *Hub, instructions, cycles, walkCycles uint64) {
	h.Publish(UnitEvent{Instructions: instructions, Cycles: cycles, WalkCycles: walkCycles})
}

func TestStatsEndpoint(t *testing.T) {
	hub := NewHub()
	hub.AddUnitsTotal(8)
	unitDone(hub, 1000, 2000, 300)
	hub.WorkerBusy()
	// 2000 more cycles land between observations 1 wall-second apart:
	// the gauge reads 2000 cycles/sec.
	hub.ObserveThroughput(1_000_000_000)
	unitDone(hub, 1000, 2000, 300)
	hub.ObserveThroughput(2_000_000_000)

	srv := httptest.NewServer(NewHandler(hub))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var s CampaignStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.UnitsDone != 2 || s.UnitsTotal != 8 {
		t.Errorf("units: %+v", s)
	}
	if s.Progress != 0.25 {
		t.Errorf("progress %v, want 0.25", s.Progress)
	}
	if s.CyclesPerSec != 2000 {
		t.Errorf("cycles/sec %v, want 2000", s.CyclesPerSec)
	}
	if s.BusyWorkers != 1 {
		t.Errorf("busy workers %v, want 1", s.BusyWorkers)
	}
}

// TestStatsJSONLRoundTrip: the JSONL heartbeat line the stderr mode
// emits parses back into an identical snapshot.
func TestStatsJSONLRoundTrip(t *testing.T) {
	hub := NewHub()
	hub.AddUnitsTotal(4)
	hub.UnitStarted()
	hub.Publish(UnitEvent{Instructions: 500, Cycles: 1500, WalkCycles: 100, IdentitiesChecked: 21})
	hub.ObserveThroughput(1_000_000_000)
	hub.ObserveThroughput(3_000_000_000)
	snap := hub.Stats()

	line := snap.JSON()
	if strings.ContainsRune(string(line), '\n') {
		t.Error("heartbeat line contains a newline")
	}
	var round CampaignStats
	if err := json.Unmarshal(line, &round); err != nil {
		t.Fatal(err)
	}
	if round != snap {
		t.Errorf("round trip changed the snapshot:\n got %+v\nwant %+v", round, snap)
	}
	// Every wire field the dashboard consumes must be present by name.
	for _, field := range []string{"units_total", "progress", "cycles_per_sec", "wcpi", "busy_workers"} {
		if !strings.Contains(string(line), `"`+field+`"`) {
			t.Errorf("heartbeat lacks %q: %s", field, line)
		}
	}
}

// statsKeys is the /stats and heartbeat wire contract: every key, in
// order. Dashboards and log scrapers depend on both.
var statsKeys = []string{
	"units_started", "units_done", "units_total", "progress", "busy_workers",
	"instructions", "cycles", "walk_cycles", "wcpi",
	"identities_checked", "identities_violated", "cycles_per_sec",
}

// jsonKeys returns the top-level keys of one JSON object, in wire order.
func jsonKeys(t *testing.T, data []byte) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(string(data)))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", data)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestStatsKeyOrder pins the exact key list and order of the /stats
// body and of the stderr heartbeat line.
func TestStatsKeyOrder(t *testing.T) {
	hub := NewHub()
	hub.AddUnitsTotal(2)
	unitDone(hub, 100, 200, 30)

	srv := httptest.NewServer(NewHandler(hub))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for name, data := range map[string][]byte{"/stats": body, "heartbeat": hub.Stats().JSON()} {
		if got := jsonKeys(t, data); !slices.Equal(got, statsKeys) {
			t.Errorf("%s keys:\n got %q\nwant %q", name, got, statsKeys)
		}
	}
}

func TestDashboardServed(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewHub()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}
	for _, needle := range []string{"EventSource", "/events", "/stats", "atscale"} {
		if !strings.Contains(string(body), needle) {
			t.Errorf("dashboard lacks %q", needle)
		}
	}
	// Unknown paths 404 rather than serving the dashboard.
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope: %d, want 404", resp.StatusCode)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	name string
	data string
}

// readSSE parses n frames off an SSE stream.
func readSSE(t *testing.T, r *bufio.Reader, n int) []sseEvent {
	t.Helper()
	var out []sseEvent
	cur := sseEvent{}
	for len(out) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended early after %d frames: %v", len(out), err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			out = append(out, cur)
			cur = sseEvent{}
		}
	}
	return out
}

// TestEventsSSEOrdering: a subscriber that connects mid-campaign sees
// the leading stats frame, the full history in order, then live events,
// with strictly increasing sequence numbers throughout.
func TestEventsSSEOrdering(t *testing.T) {
	hub := NewHub()
	publishN(hub, 3) // history before the client connects

	srv := httptest.NewServer(NewHandler(hub))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	frames := readSSE(t, br, 4) // stats + 3 replayed units
	if frames[0].name != "stats" {
		t.Fatalf("first frame %q, want stats", frames[0].name)
	}
	publishN(hub, 2) // live tail
	frames = append(frames, readSSE(t, br, 2)...)

	var lastSeq uint64
	for i, f := range frames[1:] {
		if f.name != "unit" {
			t.Fatalf("frame %d: %q, want unit", i+1, f.name)
		}
		var ev UnitEvent
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame %d: %v", i+1, err)
		}
		if ev.Seq != lastSeq+1 {
			t.Errorf("frame %d: seq %d after %d, want strictly increasing by 1", i+1, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if want := fmt.Sprintf("unit-%d", i%3); ev.Unit != want {
			t.Errorf("frame %d: unit %q, want %q", i+1, ev.Unit, want)
		}
		if len(ev.Tree) == 0 || ev.Tree[0].Path != "cycles" {
			t.Errorf("frame %d: tree missing: %+v", i+1, ev.Tree)
		}
	}
}

// TestEventsSSEDisconnect: cancelling the client's request context
// unsubscribes it from the hub (no goroutine or subscription leak).
func TestEventsSSEDisconnect(t *testing.T) {
	hub := NewHub()
	srv := httptest.NewServer(NewHandler(hub))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	readSSE(t, br, 1) // the leading stats frame: the handler is live

	if got := hub.Subscribers(); got != 1 {
		t.Fatalf("subscribers %d, want 1", got)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for hub.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber not removed after client disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	// The hub keeps publishing to nobody without issue.
	publishN(hub, 1)
}

// TestHubReplayThenLive exercises the hub directly: full history
// replay, live tail, cancel idempotence, and the non-blocking publish
// drop policy on a saturated subscriber.
func TestHubReplayThenLive(t *testing.T) {
	hub := NewHub()
	publishN(hub, 5)
	ch, cancel := hub.Subscribe()
	for i := 0; i < 5; i++ {
		ev := <-ch
		if ev.Seq != uint64(i+1) {
			t.Fatalf("replay %d: seq %d", i, ev.Seq)
		}
	}
	publishN(hub, 1)
	if ev := <-ch; ev.Seq != 6 {
		t.Fatalf("live event seq %d, want 6", ev.Seq)
	}
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Error("channel not closed after cancel")
	}
	if hub.Subscribers() != 0 {
		t.Errorf("subscribers %d after cancel", hub.Subscribers())
	}
	if got := len(hub.History()); got != 6 {
		t.Errorf("history %d, want 6", got)
	}
}

// TestHubNilSafe: the disabled-telemetry path (nil hub) must be safe to
// call from campaign hot paths.
func TestHubNilSafe(t *testing.T) {
	var hub *Hub
	hub.Publish(UnitEvent{Unit: "x"})
	if hub.Subscribers() != 0 || hub.History() != nil {
		t.Error("nil hub not inert")
	}
	hub.AddUnitsTotal(3)
	hub.ObserveThroughput(123)
	if s := hub.Stats(); s != (CampaignStats{}) {
		t.Errorf("nil hub stats: %+v", s)
	}
}

// TestDisabledPublishAllocFree: with telemetry off (nil hub) the
// per-unit hooks must not allocate — the sim hot path pays one pointer
// compare, nothing more.
func TestDisabledPublishAllocFree(t *testing.T) {
	var hub *Hub
	ev := UnitEvent{Unit: "u", Instructions: 1, Cycles: 2, WalkCycles: 3}
	allocs := testing.AllocsPerRun(1000, func() {
		hub.UnitStarted()
		hub.AddUnitsTotal(1)
		hub.WorkerBusy()
		hub.WorkerIdle()
		hub.ObserveThroughput(1)
		hub.Publish(ev)
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry hooks allocate %.1f per run, want 0", allocs)
	}
}
