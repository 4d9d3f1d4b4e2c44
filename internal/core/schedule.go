package core

import (
	"runtime"
	"sync"

	"atscale/internal/arch"
	"atscale/internal/machine"
)

// This file is the campaign scheduler. Every sweep in the package breaks
// its work into *run units* — one (workload, param, page size) simulation,
// each built on a fresh, seed-deterministic machine with no shared state —
// and executes them on a bounded worker pool. Results are written into
// per-unit slots and reduced in ladder order afterwards, so a parallel
// campaign's tables and CSV are byte-identical to a serial one's; only the
// interleaving of progress lines (each written atomically) differs.
//
// The pool bound is RunConfig.Parallelism (default GOMAXPROCS). A session
// shares one pool across every experiment dispatched on it, so concurrent
// experiments (atscale -p with several ids) together never run more than
// the configured number of simulations at once.

// machinePool recycles simulated machines across a session's run units.
// Building a machine allocates megabytes of cache/TLB tag arrays and
// re-faults its physical backing from scratch — formerly the bulk of a
// campaign's allocation volume. Renewing a pooled machine reuses that
// long-lived state in place; machine.Renew guarantees the renewed
// machine is byte-identical to a fresh build, and the flatgold goldens
// (captured unpooled) hold pooled campaigns to it. Only native radix
// machines are pooled (machine.Poolable), and a machine is only handed
// out for exactly the SystemConfig it was built with.
type machinePool struct {
	mu sync.Mutex
	// max bounds retained machines (the session's parallelism: more can
	// never be in flight at once, so more could never be reused).
	max int
	//atlint:guardedby mu
	free []*machine.Machine
}

func newMachinePool(max int) *machinePool { return &machinePool{max: max} }

// acquire returns a renewed machine matching sys, or nil when the pool
// has no match (the caller builds a fresh one). A match that fails to
// renew is released. Nil-safe.
func (p *machinePool) acquire(sys arch.SystemConfig, policy arch.PageSize, seed int64) *machine.Machine {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	var m *machine.Machine
	for i := len(p.free) - 1; i >= 0; i-- {
		if *p.free[i].Config() == sys {
			m = p.free[i]
			p.free[i] = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			break
		}
	}
	p.mu.Unlock()
	if m != nil && !m.Renew(policy, seed) {
		m.Release()
		return nil
	}
	return m
}

// release parks a finished unit's machine for reuse, or releases its
// memory when the pool is full, nil, or the machine is not poolable.
func (p *machinePool) release(m *machine.Machine) {
	if p != nil && m.Poolable() {
		p.mu.Lock()
		kept := len(p.free) < p.max
		if kept {
			p.free = append(p.free, m)
		}
		p.mu.Unlock()
		if kept {
			return
		}
	}
	m.Release()
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
	cfg.Monitor.AddUnitsTotal(uint64(n))
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
			cfg.Monitor.WorkerBusy()
			err := fn(i)
			cfg.Monitor.WorkerIdle()
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
			cfg.Monitor.WorkerBusy()
			defer cfg.Monitor.WorkerIdle()
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
