package core

import (
	"runtime"
	"slices"
	"sync"

	"atscale/internal/arch"
	"atscale/internal/machine"
)

// This file is the campaign scheduler. Every sweep in the package breaks
// its work into *run units* — one (workload, param, page size) simulation,
// each on a seed-deterministic machine in exactly the state a fresh build
// has, sharing no state with another unit — and executes them on a
// bounded worker pool. Results are written into per-unit slots and
// reduced in ladder order afterwards, so a parallel campaign's tables and
// CSV are byte-identical to a serial one's; only the interleaving of
// progress lines (each written atomically) differs.
//
// The pool bound is RunConfig.Parallelism (default GOMAXPROCS). A session
// shares one pool across every experiment dispatched on it, so concurrent
// experiments (atscale -p with several ids) together never run more than
// the configured number of simulations at once.

// machinePool recycles simulated machines across a session's run units.
// Building a machine allocates megabytes of cache/TLB tag arrays and
// faults its physical backing in from scratch; a session that builds one
// machine per config holds every config's backing at once. A parked
// machine is handed out for any config instead: one built for exactly
// the unit's SystemConfig is preferred, and renewing it reuses its arrays
// in place; otherwise the oldest parked machine is reconfigured, which
// rebuilds the timing model but keeps its host memory. Either way the
// machine is byte-identical to a fresh build (machine.Reconfigure), and
// the flatgold goldens (captured unpooled) hold pooled campaigns to it.
// machine.New runs only when nothing is parked. A full pool parks the
// newest machine and releases the oldest.
type machinePool struct {
	mu sync.Mutex
	// max bounds retained machines (the session's parallelism: more can
	// never be in flight at once, so more could never be reused).
	max int
	// free holds the parked machines, oldest first.
	//
	//atlint:guardedby mu
	free []*machine.Machine
}

func newMachinePool(max int) *machinePool { return &machinePool{max: max} }

// acquire returns a parked machine made ready for sys: the newest one
// built for exactly sys, else the oldest, reconfigured. It returns nil
// when nothing is parked or the build would reject sys and policy
// (machine.Validate), so the caller's build reports the error and the
// parked machines stay for the next unit. A machine that still fails to
// reconfigure is released. Nil-safe.
func (p *machinePool) acquire(sys arch.SystemConfig, policy arch.PageSize, seed int64) *machine.Machine {
	if p == nil || machine.Validate(sys, policy) != nil {
		return nil
	}
	p.mu.Lock()
	if len(p.free) == 0 {
		p.mu.Unlock()
		return nil
	}
	// The oldest machine, free[0], is the fallback and also a match when
	// no newer one is.
	i := 0
	for j := len(p.free) - 1; j > 0; j-- {
		if *p.free[j].Config() == sys {
			i = j
			break
		}
	}
	m := p.free[i]
	p.free = slices.Delete(p.free, i, i+1)
	p.mu.Unlock()
	if err := m.Reconfigure(sys, policy, seed); err != nil {
		m.Release()
		return nil
	}
	return m
}

// release parks a finished unit's machine for reuse. When that overfills
// the pool, the oldest parked machine's memory is released instead; a
// nil pool releases m itself.
func (p *machinePool) release(m *machine.Machine) {
	if p == nil {
		m.Release()
		return
	}
	p.mu.Lock()
	p.free = append(p.free, m)
	var evicted *machine.Machine
	if len(p.free) > p.max {
		evicted = p.free[0]
		p.free = slices.Delete(p.free, 0, 1)
	}
	p.mu.Unlock()
	if evicted != nil {
		evicted.Release()
	}
}

// parallelism resolves the configured worker count.
func (c *RunConfig) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// limiter bounds how many run units execute concurrently. A nil limiter
// admits everything (callers size it before use).
type limiter chan struct{}

func (l limiter) acquire() { l <- struct{}{} }
func (l limiter) release() { <-l }

// forEachUnit executes fn(0..n-1) on the config's worker pool and returns
// the first error. With Parallelism 1 the units run in index order on the
// calling goroutine, exactly like the pre-scheduler serial loops. With a
// larger pool, units run concurrently (bounded by the session-shared pool
// when the config came from a session); after the first error no new unit
// starts, in-flight units drain, and the error is returned — a unit's
// result is only meaningful if forEachUnit returned nil.
func forEachUnit(cfg *RunConfig, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	// Announce the scheduled unit count before any unit runs, so live
	// progress (done/total) is meaningful from the first heartbeat.
	cfg.Events.AddUnitsTotal(uint64(n))
	if cfg.parallelism() == 1 || n == 1 {
		for i := 0; i < n; i++ {
			// A session-shared limiter must bound these units too.
			// Concurrent experiments (Session.SweepAll, the CLI's -p
			// fan-out) each enter this serial path when Parallelism
			// resolves to 1 — on a single-core host that used to mean
			// one unit in flight *per caller* instead of one total,
			// which thrashed the machine pool and ran parallel
			// campaigns slower than serial ones.
			if cfg.pool != nil {
				cfg.pool.acquire()
			}
			cfg.Events.WorkerBusy()
			err := fn(i)
			cfg.Events.WorkerIdle()
			if cfg.pool != nil {
				cfg.pool.release()
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	pool := cfg.pool
	if pool == nil {
		// Config not built by a session: bound this call on its own.
		pool = make(limiter, cfg.parallelism())
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			pool.acquire()
			defer pool.release()
			if failed() {
				return // cancelled: an earlier unit errored
			}
			cfg.Events.WorkerBusy()
			defer cfg.Events.WorkerIdle()
			if err := fn(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}
