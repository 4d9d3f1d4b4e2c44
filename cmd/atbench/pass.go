package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"atscale/internal/core"
	"atscale/internal/machine"
	"atscale/internal/perf"
	"atscale/internal/refute"
	"atscale/internal/scheme"
	"atscale/internal/trace"
	"atscale/internal/workloads"
	_ "atscale/internal/workloads/all"
)

// unitSample is one unit's outcome within a pass. core.Run is timed from
// outside and split at the wrapped Build and Instance.Run calls:
//
//	acquire  core.Run entry to Build entry (machine.New or a pooled Renew)
//	build    the workload's setup
//	steady   the measured region
//	post     measured-region end to core.Run return (identities, topdown,
//	         pool release)
type unitSample struct {
	Unit      string `json:"unit"`
	Err       string `json:"err,omitempty"`
	Checked   int    `json:"identities_checked"`
	Digest    string `json:"digest"`
	AcquireNS int64  `json:"acquire_ns"`
	BuildNS   int64  `json:"build_ns"`
	SteadyNS  int64  `json:"steady_ns"`
	PostNS    int64  `json:"post_ns"`

	// Simulated work of the measured region, from the PMU delta.
	Accesses       uint64 `json:"accesses"`
	Instructions   uint64 `json:"instructions"`
	STLBMisses     uint64 `json:"stlb_misses"`
	Walks          uint64 `json:"walks"`
	WrongPathWalks uint64 `json:"wrong_path_walks"`
	WalkerLoads    uint64 `json:"walker_loads"`

	// Layers is the traced attribution (traced passes only).
	Layers *unitLayers `json:"layers,omitempty"`
}

// passSample is one pass over a workload's units, run in its own process.
type passSample struct {
	Traced     bool    `json:"traced"`
	WallNS     int64   `json:"wall_ns"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	GCCPUFrac  float64 `json:"gc_cpu_frac"`
	// MaxRSSKiB is the pass process's peak resident set.
	MaxRSSKiB int64 `json:"max_rss_kib"`
	// ProbeNS is the mean host probe time around the pass, which the
	// parent measures (see probe.go).
	ProbeNS int64        `json:"probe_ns"`
	Units   []unitSample `json:"units"`
	Spans   []span       `json:"spans,omitempty"`
}

// tracing is a traced pass's state: the unit being recorded and the
// bounds on the attribution that follows each unit.
type tracing struct {
	rec           recording
	setup, steady bytes.Buffer
	w             *trace.Writer
	// until bounds the attribution repetitions of the remaining units.
	until time.Time
	spans *spanLog
}

// record starts recording m's events into buf, after flushing the events
// recorded so far.
func (tr *tracing) record(m *machine.Machine, buf *bytes.Buffer) {
	tr.flush()
	buf.Reset()
	tr.w = trace.NewWriter(buf)
	m.SetTracer(tr.w)
}

func (tr *tracing) flush() {
	if tr.w != nil {
		_ = tr.w.Flush() // writes to a bytes.Buffer cannot fail
	}
}

// runPass runs every unit of w once on a fresh campaign session:
// Parallelism 1, machine pooling on, the refute checker on. With tr
// non-nil, each unit then runs a second time with its event stream
// recorded, and the recording is attributed to layers before the next
// unit starts; the unit's sample stays the untraced run's.
func runPass(w benchWorkload, seed int64, budget uint64, tr *tracing) passSample {
	cfg := core.DefaultRunConfig()
	cfg.Budget = budget
	cfg.Seed = seed
	cfg.Parallelism = 1
	sess := core.NewSession(cfg)

	ps := passSample{Traced: tr != nil}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var gcSeconds, cpuSeconds float64
	start := time.Now()
	for i, u := range w.units {
		gc0, cpu0 := gcCPU()
		us := runUnit(sess, i, u, nil)
		gc1, cpu1 := gcCPU()
		gcSeconds += gc1 - gc0
		cpuSeconds += cpu1 - cpu0
		if tr != nil && us.Err == "" {
			us.Err, us.Layers = traceUnit(sess, i, u, us, seed, tr, len(w.units)-i)
		}
		ps.Units = append(ps.Units, us)
	}
	ps.WallNS = int64(time.Since(start))
	runtime.ReadMemStats(&after)
	ps.AllocBytes = after.TotalAlloc - before.TotalAlloc
	ps.Mallocs = after.Mallocs - before.Mallocs
	ps.GCCPUFrac = ratio(gcSeconds, cpuSeconds)
	if tr != nil {
		ps.Spans = tr.spans.spans
	}
	return ps
}

// traceUnit reruns unit u with its event stream recorded, requires the
// same counter digest as the untraced run us, and attributes the
// recording to layers within its share of the time left: the time until
// tr.until split evenly over the units left.
func traceUnit(sess *core.Session, id int, u unit, us unitSample, seed int64, tr *tracing, left int) (string, *unitLayers) {
	ts := runUnit(sess, id, u, tr)
	switch {
	case ts.Err != "":
		return "traced run: " + ts.Err, nil
	case ts.Digest != us.Digest:
		return fmt.Sprintf("traced run's counter digest %.12s differs from %.12s", ts.Digest, us.Digest), nil
	}
	tr.rec.setup, tr.rec.steady = tr.setup.Bytes(), tr.steady.Bytes()
	l, err := attributeUnit(u, seed, &tr.rec, tr.spans, id, time.Now().Add(time.Until(tr.until)/time.Duration(left)))
	if err != nil {
		return err.Error(), nil
	}
	l.TracedSteadyNS = ts.SteadyNS
	return "", l
}

// gcCPU reads the runtime's running estimates of the CPU time spent in
// the garbage collector and of all CPU time available to the process.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// unitClock holds the timestamps the wrapped Build and Instance.Run take.
type unitClock struct {
	build, built, steady, steadyEnd time.Time
}

// timedInstance wraps a workload instance so its measured region is
// timed from outside.
type timedInstance struct {
	inst  workloads.Instance
	m     *machine.Machine
	clock *unitClock
	tr    *tracing
}

func (t *timedInstance) Run(budget uint64) {
	if t.tr != nil {
		t.tr.record(t.m, &t.tr.steady)
	}
	t.clock.steady = time.Now()
	t.inst.Run(budget)
	t.clock.steadyEnd = time.Now()
	if t.tr != nil {
		t.m.SetTracer(nil)
		t.tr.flush()
		t.tr.rec.live = t.m.Counters()
	}
}

// runUnit runs one unit through core.Run with its spec's Build and
// Instance.Run wrapped by timestamps, and checks its identities.
func runUnit(sess *core.Session, id int, u unit, tr *tracing) unitSample {
	us := unitSample{Unit: u.String()}
	cfg := sess.Config()
	if err := configure(&cfg.System, u.Variant); err != nil {
		us.Err = err.Error()
		return us
	}
	sch, err := scheme.ByName(cfg.System.Scheme)
	if err != nil {
		us.Err = err.Error()
		return us
	}
	checker := refute.NewChecker(append(core.CampaignIdentities(), sch.Identities()...)...)
	cfg.Refute = checker
	spec, err := workloads.ByName(u.Spec)
	if err != nil {
		us.Err = err.Error()
		return us
	}

	var clock unitClock
	timed := *spec
	timed.Build = func(m *machine.Machine, param uint64) (workloads.Instance, error) {
		clock.build = time.Now()
		if tr != nil {
			tr.w = nil
			tr.rec = recording{sys: *m.Config(), pages: u.Pages}
			tr.record(m, &tr.setup)
		}
		inst, err := spec.Build(m, param)
		clock.built = time.Now()
		if err != nil {
			return nil, err
		}
		return &timedInstance{inst: inst, m: m, clock: &clock, tr: tr}, nil
	}

	start := time.Now()
	r, err := core.Run(&cfg, &timed, u.Param, u.Pages)
	end := time.Now()
	if err != nil {
		us.Err = err.Error()
		return us
	}
	us.AcquireNS = int64(clock.build.Sub(start))
	us.BuildNS = int64(clock.built.Sub(clock.build))
	us.SteadyNS = int64(clock.steadyEnd.Sub(clock.steady))
	us.PostNS = int64(end.Sub(clock.steadyEnd))
	if tr != nil {
		unitSpan := tr.spans.add(0, id, "unit", start, end)
		tr.spans.add(unitSpan, id, "acquire", start, clock.build)
		tr.spans.add(unitSpan, id, "build", clock.build, clock.built)
		tr.spans.add(unitSpan, id, "steady", clock.steady, clock.steadyEnd)
		tr.spans.add(unitSpan, id, "post", clock.steadyEnd, end)
	}

	rep := checker.Report()
	for i := range rep.Identities {
		ir := &rep.Identities[i]
		us.Checked += ir.Checked
		for _, v := range ir.Worst {
			us.Err += fmt.Sprintf("identity %s violated (l=%g r=%g residual=%g); ", v.Identity, v.L, v.R, v.Residual)
		}
	}
	c := r.Counters
	us.Digest = digest(c)
	us.Accesses = c.Get(perf.AllLoads) + c.Get(perf.AllStores)
	us.Instructions = c.Get(perf.InstRetired)
	us.STLBMisses = c.Get(perf.STLBMissLoads) + c.Get(perf.STLBMissStores)
	o := perf.Outcomes(c)
	us.Walks = o.Initiated
	us.WrongPathWalks = o.WrongPath
	us.WalkerLoads = c.Get(perf.WalkerLoadsL1) + c.Get(perf.WalkerLoadsL2) +
		c.Get(perf.WalkerLoadsL3) + c.Get(perf.WalkerLoadsMem)
	return us
}

// digest is the SHA-256 of a counter delta, every event in definition
// order as a little-endian uint64. Bit-identical simulated counters are
// how a host-time change proves it left the model unchanged.
func digest(c perf.Counters) string {
	h := sha256.New()
	var b [8]byte
	for e := perf.Event(0); e < perf.NumEvents; e++ {
		binary.LittleEndian.PutUint64(b[:], c.Get(e))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
