package core

import (
	"math"
	"sort"
	"sync"

	"atscale/internal/arch"
	"atscale/internal/perf"
	"atscale/internal/workloads"
)

// OverheadPoint is one input size of one workload, measured under all
// three page-size policies and reduced per the paper's §III methodology.
type OverheadPoint struct {
	// Workload is the program-generator name.
	Workload string
	// Param is the input-size parameter.
	Param uint64
	// Footprint is the memory footprint (identical across policies; the
	// paper indexes by the 4 KB configuration's footprint).
	Footprint uint64

	// CPI4K, CPI2M, CPI1G are the per-policy cycles per instruction.
	// The workloads retire identical instruction streams under every
	// policy, so CPI ratios equal runtime ratios.
	CPI4K, CPI2M, CPI1G float64

	// RelOverhead is (t_4K - baseline) / baseline with
	// baseline = min(t_2MB, t_1GB) — the paper's relative AT overhead.
	RelOverhead float64

	// M4K, M2M, M1G are the full derived metrics per policy.
	M4K, M2M, M1G perf.Metrics

	// C4K is the 4 KB policy's raw counter delta, kept so downstream
	// reports can attribute the overhead policy's cycles (the 2 MB/1 GB
	// baselines are summarized by their metrics alone).
	C4K perf.Counters
}

// Log10Footprint returns log10 of the footprint in bytes (the regression
// abscissa of Table IV).
func (p OverheadPoint) Log10Footprint() float64 { return math.Log10(float64(p.Footprint)) }

// policies is the fixed page-size order of the §III methodology. The
// values double as indices into per-point result arrays.
var policies = [...]arch.PageSize{arch.Page4K, arch.Page2M, arch.Page1G}

// reduceOverhead folds one size's three per-policy runs into a point.
func reduceOverhead(rr [3]RunResult) OverheadPoint {
	p := OverheadPoint{
		Workload:  rr[arch.Page4K].Workload,
		Param:     rr[arch.Page4K].Param,
		Footprint: rr[arch.Page4K].Footprint,
		CPI4K:     rr[arch.Page4K].Metrics.CPI,
		CPI2M:     rr[arch.Page2M].Metrics.CPI,
		CPI1G:     rr[arch.Page1G].Metrics.CPI,
		M4K:       rr[arch.Page4K].Metrics,
		M2M:       rr[arch.Page2M].Metrics,
		M1G:       rr[arch.Page1G].Metrics,
		C4K:       rr[arch.Page4K].Counters,
	}
	baseline := math.Min(p.CPI2M, p.CPI1G)
	if baseline > 0 {
		p.RelOverhead = (p.CPI4K - baseline) / baseline
	}
	return p
}

// MeasureOverhead runs one (workload, size) under 4 KB, 2 MB and 1 GB
// policies — concurrently when the config allows — and reduces to an
// OverheadPoint.
func MeasureOverhead(cfg *RunConfig, spec *workloads.Spec, param uint64) (OverheadPoint, error) {
	var rr [3]RunResult
	err := forEachUnit(cfg, len(policies), func(i int) error {
		r, err := Run(cfg, spec, param, policies[i])
		if err != nil {
			return err
		}
		rr[policies[i]] = r
		return nil
	})
	if err != nil {
		return OverheadPoint{}, err
	}
	return reduceOverhead(rr), nil
}

// SweepOverhead measures every ladder rung the preset selects. All
// (rung, page size) units of the sweep are scheduled onto the worker pool
// together; points come back in ladder order regardless of completion
// order, so parallel output is identical to serial output.
func SweepOverhead(cfg *RunConfig, spec *workloads.Spec) ([]OverheadPoint, error) {
	params := spec.Sizes(cfg.Preset)
	results := make([][3]RunResult, len(params))
	err := forEachUnit(cfg, len(params)*len(policies), func(u int) error {
		ps := policies[u%len(policies)]
		r, err := Run(cfg, spec, params[u/len(policies)], ps)
		if err != nil {
			return err
		}
		results[u/len(policies)][ps] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]OverheadPoint, len(params))
	for i := range params {
		out[i] = reduceOverhead(results[i])
	}
	return out, nil
}

// Session memoizes per-workload sweeps so the experiments that share data
// (Figures 1-10, Tables IV-V) measure each workload once. A Session is
// safe for concurrent use: overlapping experiments that need the same
// workload coalesce onto a single in-flight sweep (duplicates wait for
// and share its result), and all of a session's work runs on one bounded
// worker pool.
type Session struct {
	cfg  *RunConfig
	memo *sweepMemo
}

// sweepMemo is a session's sweep memo, shared by its experiment views.
type sweepMemo struct {
	mu sync.Mutex
	//atlint:guardedby mu
	sweeps map[string]*sweepCall
}

// sweepCall is one memoized (possibly in-flight) sweep.
type sweepCall struct {
	done chan struct{} // closed when pts/err are final
	pts  []OverheadPoint
	err  error
}

// NewSession creates a measurement session with the given configuration.
// The config is copied; the session's copy must not be mutated afterwards
// (concurrent sweeps read it without locks). Configure Parallelism before
// calling NewSession — it sizes the session's worker pool.
func NewSession(cfg RunConfig) *Session {
	if cfg.pool == nil {
		cfg.pool = make(limiter, cfg.parallelism())
	}
	if cfg.machines == nil {
		cfg.machines = newMachinePool(cfg.parallelism())
	}
	return &Session{cfg: &cfg, memo: &sweepMemo{sweeps: make(map[string]*sweepCall)}}
}

// forExperiment returns a view of s whose units carry experiment id's
// profile label. The view shares s's memo, pools and everything else, so
// a sweep two experiments share is measured once, under the label of the
// experiment that asked first.
func (s *Session) forExperiment(id string) *Session {
	cfg := *s.cfg
	cfg.experiment = id
	return &Session{cfg: &cfg, memo: s.memo}
}

// Config returns a copy of the session's run configuration. Experiments
// that need a variant (different seed, promotion on, hashed page tables)
// mutate the copy before its first use; the copy shares the session's
// worker pool, so variant runs count against the same parallelism bound.
func (s *Session) Config() RunConfig { return *s.cfg }

// Sweep returns the (memoized) overhead sweep of the named workload. If
// another goroutine is already measuring the same workload, Sweep waits
// for that measurement and shares its result instead of repeating it.
func (s *Session) Sweep(name string) ([]OverheadPoint, error) {
	s.memo.mu.Lock()
	if c, ok := s.memo.sweeps[name]; ok {
		s.memo.mu.Unlock()
		<-c.done
		return c.pts, c.err
	}
	c := &sweepCall{done: make(chan struct{})}
	s.memo.sweeps[name] = c
	s.memo.mu.Unlock()
	defer close(c.done)

	spec, err := workloads.ByName(name)
	if err != nil {
		c.err = err
		return nil, err
	}
	s.cfg.logf("sweeping %s (%s preset)", name, s.cfg.Preset)
	c.pts, c.err = SweepOverhead(s.cfg, spec)
	return c.pts, c.err
}

// SweepAll sweeps every Table I workload and returns points grouped by
// workload name. With a parallel config the sweeps are dispatched
// together so the pool stays busy across workload boundaries; the result
// (and the error returned, taken in workload order) is the same either
// way.
func (s *Session) SweepAll() (map[string][]OverheadPoint, error) {
	specs := PaperWorkloads()
	out := make(map[string][]OverheadPoint, len(specs))
	if s.cfg.parallelism() == 1 {
		for _, spec := range specs {
			pts, err := s.Sweep(spec.Name())
			if err != nil {
				return nil, err
			}
			out[spec.Name()] = pts
		}
		return out, nil
	}
	pts := make([][]OverheadPoint, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	wg.Add(len(specs))
	for i, spec := range specs {
		go func(i int, name string) {
			defer wg.Done()
			pts[i], errs[i] = s.Sweep(name)
		}(i, spec.Name())
	}
	wg.Wait()
	for i, spec := range specs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[spec.Name()] = pts[i]
	}
	return out, nil
}

// sortedSweepNames returns a SweepAll result's workload names in sorted
// order. Every consumer that flattens or renders sweep results iterates
// this slice: position-sensitive downstream math (bootstrap resampling
// in Table V) and rendered row order must not inherit map iteration
// order.
func sortedSweepNames(all map[string][]OverheadPoint) []string {
	var names []string
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
