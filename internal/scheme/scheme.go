// Package scheme defines the pluggable translation-scheme seam: the
// interface a translation-reach proposal implements to slot in under the
// machine in place of the hard-wired radix walker, plus the registry
// machine construction selects a backend from by name
// (arch.SystemConfig.Scheme).
//
// A scheme owns everything between the TLBs and physical memory: it
// builds its per-machine walk state (paging-structure caches plus
// whatever structure the proposal adds), resolves each TLB miss, defines
// which flush scopes drop which structures, and declares the perf events
// and refute identities its accounting is held to. Every backend is a
// delta on walker.Walker's radix kernel (Descend, Resolve, Charge), as
// is the nested walker machine construction builds outside this seam
// (one Walker per dimension), so there is one radix walk in the
// simulator. Four backends ship:
//
//   - radix: walker.Walker itself, byte-identical to the pre-scheme
//     machine (the flatgold goldens prove it); with NUMA.Nodes > 1 it
//     becomes the no-replication NUMA baseline whose remote walks
//     Mitosis exists to remove.
//   - victima: Victima-style PTE blocks cached in the L2/L3 data
//     hierarchy with TLB-pressure-driven insertion (Kanellopoulos et
//     al., PAPERS.md).
//   - mitosis: per-node page-table replicas with replica-local walks
//     (Achermann et al., PAPERS.md) over the NUMA memory model.
//   - dramcache: a Patil-style die-stacked DRAM cache under the walker
//     with a hit/miss latency split.
package scheme

import (
	"fmt"

	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/perf"
	"atscale/internal/refute"
	"atscale/internal/walker"
)

// Deps is what a scheme gets to build its per-machine state from: the
// validated system configuration and the machine's physical memory and
// data-cache hierarchy (shared with demand accesses, so scheme-cached
// translation structures compete with data exactly like PTE loads do).
type Deps struct {
	Cfg    *arch.SystemConfig
	Phys   *mem.Phys
	Caches *cache.Hierarchy
}

// Instance is one machine's worth of scheme state: the machine's
// walker.Engine, lifecycle hooks included.
type Instance = walker.Engine

// Migratory is implemented by instances that model a multi-node NUMA
// machine. The machine drives the deterministic migration schedule
// through it: SetNode is the scheme's half of a thread migration (the
// machine flushes the TLBs; the scheme flushes its per-core walk
// caches and retargets walks to the new node).
type Migratory interface {
	Nodes() int
	SetNode(n int)
}

// Scheme is one registered translation-scheme backend.
type Scheme interface {
	// Name is the registry key (the -scheme flag value).
	Name() string
	// Doc is a one-line description for listings.
	Doc() string
	// Build constructs per-machine state. The config is validated.
	Build(d Deps) (Instance, error)
	// Events lists the perf events this scheme populates beyond the
	// baseline walker events.
	Events() []perf.Event
	// Identities lists the refute identities bounding this scheme's
	// accounting. Each must be guarded so it holds (or guards out) on
	// units run under any other scheme: the schemes experiment checks
	// one merged registry across the whole matrix.
	Identities() []refute.Identity
}

// schemes is the registry, in declaration order (stable for Names and
// for merged identity ordering).
var schemes = []Scheme{
	radixScheme{},
	victimaScheme{},
	mitosisScheme{},
	dramCacheScheme{},
}

// errf builds a package-prefixed construction error.
func errf(format string, args ...any) error {
	return fmt.Errorf("scheme: "+format, args...)
}

// ByName resolves a scheme name; the empty string means radix.
func ByName(name string) (Scheme, error) {
	if name == "" {
		name = "radix"
	}
	for _, s := range schemes {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("scheme: unknown scheme %q (have %v)", name, Names())
}

// Names returns the registered scheme names in registry order.
func Names() []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.Name()
	}
	return out
}

// AllIdentities returns every registered scheme's identities in registry
// order — the identity superset the schemes experiment appends to the
// base registry so one checker covers the whole matrix.
func AllIdentities() []refute.Identity {
	var out []refute.Identity
	for _, s := range schemes {
		out = append(out, s.Identities()...)
	}
	return out
}

// AllEvents returns every registered scheme's extra events in registry
// order (CLI listings).
func AllEvents() []perf.Event {
	var out []perf.Event
	for _, s := range schemes {
		out = append(out, s.Events()...)
	}
	return out
}
