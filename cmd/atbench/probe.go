package main

import (
	"slices"
	"time"
)

// The host this benchmark runs on is typically shared: other tenants'
// load on the last-level cache and memory bandwidth slows the simulator
// by tens of percent for minutes at a time, with no change in the code.
// Host times are therefore normalized by a probe: a fixed workload that
// shares no code with the simulator but makes the same kind of host
// work — random read-modify-writes over a table far larger than a
// tenant's cache share, plus set-associative tag scans like the cache
// and TLB models' — so that it slows down with the simulator. The parent
// process times the probe before the first pass and after every pass,
// while no pass runs, and scales each pass's times by referenceProbe
// over the mean of the probes on either side of it.

// referenceProbe is the probe's median time on the reference host, a
// 2-vCPU Xeon guest (80 runs: quartiles 80 and 99 ms). Normalized times
// are host seconds on that host.
const referenceProbe = 90 * time.Millisecond

// probe sizes: a 128 MiB table and an 8 MiB tag array, three runs of
// 500k steps.
const (
	probeTableWords = 16 << 20
	probeTagWords   = 1 << 20
	probeWays       = 8
	probeRuns       = 3
	probeSteps      = 500_000
)

// hostProbe holds the probe's memory, allocated and touched once so that
// every timed run finds it resident.
type hostProbe struct {
	table, tags []uint64
	sink        uint64
}

func newHostProbe() *hostProbe {
	h := &hostProbe{table: make([]uint64, probeTableWords), tags: make([]uint64, probeTagWords)}
	for i := range h.table {
		h.table[i] = uint64(i)
	}
	for i := range h.tags {
		h.tags[i] = uint64(i)
	}
	return h
}

// run times one probe: the median of probeRuns runs, scaled to all
// their steps, so a momentary stall in one run does not count.
func (h *hostProbe) run() time.Duration {
	var d [probeRuns]time.Duration
	for i := range d {
		d[i] = h.once()
	}
	slices.Sort(d[:])
	return probeRuns * d[probeRuns/2]
}

// once times probeSteps steps.
func (h *hostProbe) once() time.Duration {
	start := time.Now()
	x := uint64(0x2545F4914F6CDD1D)
	tableMask := uint64(len(h.table) - 1)
	setMask := uint64(len(h.tags)/probeWays - 1)
	var hits uint64
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.table[x&tableMask] ^= x
		set := ((x >> 32) & setMask) * probeWays
		for w := uint64(0); w < probeWays; w++ {
			if h.tags[set+w] == x {
				hits++
			}
		}
		h.tags[set+(x>>20)%probeWays] = x
	}
	h.sink += hits
	return time.Since(start)
}
