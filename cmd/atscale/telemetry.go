package main

//atlint:frontend heartbeat loops timestamp throughput observations; wall time never reaches simulation state

// Frontend half of the telemetry subsystem: everything that touches the
// wall clock or the network lives here, in an exempt cmd package, so the
// simulator proper (internal/telemetry included) stays free of
// nondeterminism. The heartbeat loops and the HTTP server only ever
// read the hub's fold and drain its events; they perturb no simulation
// state. Wall-clock readings enter the hub as plain int64 nanos via
// ObserveThroughput, which keeps the throughput gauge in
// internal/telemetry clock-free and unit-testable.

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"atscale/internal/core"
	"atscale/internal/telemetry"
)

// heartbeatPeriod is how often the stderr mode emits a JSONL snapshot
// and how often either mode refreshes the cycles/sec throughput gauge.
const heartbeatPeriod = time.Second

// startTelemetry starts live telemetry in the requested mode — "stderr"
// for JSONL heartbeat lines, anything else a TCP listen address serving
// the dashboard (GET /), stats snapshots (GET /stats) and the live SSE
// event feed (GET /events) — and returns a stop function that emits a
// final consistent snapshot / shuts the server down before returning.
// Either mode ticks the cycles/sec throughput gauge, which needs
// periodic wall-clock observations even when no dashboard is polling.
func startTelemetry(mode string, hub *telemetry.Hub) (func(), error) {
	var srv *http.Server
	if mode != "stderr" {
		ln, err := net.Listen("tcp", mode)
		if err != nil {
			return nil, fmt.Errorf("-telemetry %q: %w", mode, err)
		}
		srv = &http.Server{Handler: telemetry.NewHandler(hub)}
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "telemetry: dashboard on http://%s/ (stats: /stats, live events: /events)\n", ln.Addr())
	}
	heartbeat := func() {
		hub.ObserveThroughput(time.Now().UnixNano())
		if srv == nil {
			os.Stderr.Write(append(hub.Stats().JSON(), '\n'))
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(heartbeatPeriod)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				heartbeat()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		if srv != nil {
			srv.Close()
			return
		}
		// Final heartbeat so short campaigns still emit one line.
		heartbeat()
	}, nil
}

// writeTimeline writes the -timeline file and, when verify is set,
// parses it back through the shared structural validator.
func writeTimeline(f *core.Flags, tr *telemetry.Tracer, verify bool) error {
	if err := f.WriteTimeline(tr); err != nil || !verify {
		return err
	}
	data, err := os.ReadFile(f.Timeline)
	if err != nil {
		return err
	}
	stats, err := telemetry.Validate(data)
	if err != nil {
		return fmt.Errorf("timeline %s failed validation: %w", f.Timeline, err)
	}
	fmt.Fprintf(os.Stderr, "timeline %s: %s\n", f.Timeline, stats)
	return nil
}
