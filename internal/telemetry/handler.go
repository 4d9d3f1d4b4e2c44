package telemetry

import (
	_ "embed"
	"net/http"
)

// The HTTP surface of live telemetry. It lives here — not in cmd/ —
// so httptest can drive it directly, but it stays clock-free like the
// rest of the package: handlers only read the hub's fold and drain its
// events; timestamps and tickers remain the CLI's business.

//go:embed dashboard.html
var dashboardHTML []byte

// NewHandler serves the live-campaign endpoints:
//
//	GET /        the embedded HTML dashboard (progress, WCPI trend,
//	             live attribution tree; stdlib + vanilla JS only)
//	GET /stats   one CampaignStats snapshot of the hub's fold as JSON
//	GET /events  the hub's UnitEvent feed as Server-Sent Events, full
//	             history replayed first, then live events until the
//	             client disconnects
func NewHandler(hub *Hub) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(dashboardHTML)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(hub.Stats().JSON(), '\n'))
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		events, cancel := hub.Subscribe()
		defer cancel()
		// Lead with a stats snapshot so a fresh dashboard paints
		// progress before the first unit completes.
		writeSSE(w, "stats", hub.Stats().JSON())
		flusher.Flush()
		for {
			select {
			case <-r.Context().Done():
				return
			case ev, ok := <-events:
				if !ok {
					return
				}
				writeSSE(w, "unit", ev.JSON())
				flusher.Flush()
			}
		}
	})
	return mux
}

// writeSSE frames one event in Server-Sent Events wire format.
func writeSSE(w http.ResponseWriter, event string, data []byte) {
	w.Write([]byte("event: " + event + "\ndata: "))
	w.Write(data)
	w.Write([]byte("\n\n"))
}
