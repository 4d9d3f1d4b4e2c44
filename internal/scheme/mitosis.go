package scheme

import (
	"atscale/internal/arch"
	"atscale/internal/cache"
	"atscale/internal/mem"
	"atscale/internal/mmucache"
	"atscale/internal/pagetable"
	"atscale/internal/perf"
	"atscale/internal/refute"
	"atscale/internal/walker"
)

// mitosisScheme models Mitosis (Achermann et al.): on a NUMA machine
// every node keeps its own replica of the page table, so a page walk
// never crosses the interconnect — walker PTE loads stay node-local no
// matter where the thread runs. The model gives each node a lazily
// built replica table whose pages are allocated from that node's memory
// region; a walk on node n descends the local replica, and a replica
// miss falls back to the master table (homed on node 0, paying the
// remote-DRAM penalty per off-node PTE load that reaches memory) before
// the OS-side sync installs the translation into the replica — so the
// remote cost appears exactly once per (node, page), the cost Mitosis's
// eager replication amortizes.
//
// The same walk loop with replication off is the plain NUMA baseline
// the radix scheme uses when NUMA.Nodes > 1: every walk targets the
// master table and repeatedly pays the remote penalty from non-zero
// nodes. Comparing the two isolates the replication benefit.
type mitosisScheme struct{}

func (mitosisScheme) Name() string { return "mitosis" }

func (mitosisScheme) Doc() string {
	return "Mitosis-style per-node page-table replicas with replica-local walks"
}

func (mitosisScheme) Build(d Deps) (Instance, error) {
	if d.Cfg.NUMA.EffectiveNodes() < 2 {
		return nil, errf("mitosis requires NUMA.Nodes >= 2 (got %d); pass -numa-nodes", d.Cfg.NUMA.Nodes)
	}
	return newNUMAWalker(d, mmucache.NewWithDepth(d.Cfg.PSC, d.Cfg.PagingLevels), true), nil
}

func (mitosisScheme) Events() []perf.Event {
	return []perf.Event{perf.ReplicaLocalWalks, perf.ReplicaRemoteWalks, perf.NUMAMigrations}
}

func (mitosisScheme) Identities() []refute.Identity {
	replicaWalks := refute.Sum(refute.Ev("replica_local_walks"), refute.Ev("replica_remote_walks"))
	return []refute.Identity{
		{
			Name: "replica_walk_partition",
			Doc: "every completed walk is classified replica-local or replica-remote, " +
				"counted exactly beside walk_completed",
			L: replicaWalks, Rel: refute.EQ,
			R: refute.Sum(refute.Ev("dtlb_load_misses.walk_completed"),
				refute.Ev("dtlb_store_misses.walk_completed")),
			Guards: []refute.Expr{replicaWalks},
		},
	}
}

// numaWalker is the NUMA-aware radix walk engine, shared by the plain
// NUMA baseline (replicate false) and Mitosis (replicate true).
type numaWalker struct {
	*walker.Walker
	phys *mem.Phys

	nodes     int
	node      int // current executing node (SetNode)
	remoteLat uint64
	levels    int

	// replicate enables per-node page-table replicas; replicas[n] is
	// node n's table, nil until the first walk on that node installs a
	// translation (node 0 walks the master directly, so replicas[0]
	// stays nil).
	replicate bool
	replicas  []*pagetable.Table

	// sawRemote is per-walk scratch: set by AdjustLoad when any PTE
	// load was homed off the walking node.
	//
	//atlint:noreset per-walk scratch: Walk clears it on entry before any load is charged
	sawRemote bool
}

func newNUMAWalker(d Deps, psc *mmucache.PSC, replicate bool) *numaWalker {
	n := d.Cfg.NUMA.EffectiveNodes()
	return &numaWalker{
		Walker:    walker.New(d.Phys, psc, d.Caches),
		phys:      d.Phys,
		nodes:     n,
		remoteLat: d.Cfg.NUMA.EffectiveRemoteLatency(),
		levels:    d.Cfg.PagingLevels,
		replicate: replicate,
		replicas:  make([]*pagetable.Table, n),
	}
}

// AdjustLoad implements walker.LoadAdjuster: an off-node PTE load marks
// the walk remote, and pays the interconnect penalty when it reaches
// DRAM (SRAM hits are on-chip regardless of the line's home).
func (w *numaWalker) AdjustLoad(pa arch.PAddr, loc cache.HitLoc) int64 {
	if w.phys.NodeOf(pa) != w.node {
		w.sawRemote = true
		if loc == cache.HitMem {
			return int64(w.remoteLat)
		}
	}
	return 0
}

// Walk implements walker.Engine.
//
//atlint:hotpath
func (w *numaWalker) Walk(va arch.VAddr, cr3 arch.PAddr, budget uint64) walker.Result {
	var r walker.Result
	var p walker.Path
	w.BeginSpan()
	w.sawRemote = false

	// Primary descent: the local replica when this node has one, the
	// master table otherwise — entered at the deepest PSC hit.
	root, onReplica := cr3, false
	if w.replicate && w.node != 0 {
		if rep := w.replicas[w.node]; rep != nil {
			root, onReplica = rep.Root(), true
		}
	}
	w.Descend(&p, va, root, &r)

	if p.OK() || !onReplica {
		w.Charge(&p, va, budget, w, &r, true)
		if r.OK && w.replicate && w.node != 0 && !onReplica {
			// A master-served walk on a non-zero node warms the replica
			// (the OS-side sync Mitosis performs off the critical path).
			w.installReplica(va, r.Frame, r.Size)
		}
	} else {
		// Replica miss: charge the replica prefix the hardware read
		// before discovering the hole, then walk the master from its
		// root (the remote walk replication exists to avoid) and sync
		// the replica on success.
		if aborted := w.Charge(&p, va, budget, w, &r, false); !aborted {
			w.Resolve(&p, va, w.PSC().Top(), cr3, 0)
			w.Charge(&p, va, budget, w, &r, true)
			if r.OK {
				w.installReplica(va, r.Frame, r.Size)
			}
		}
	}
	if w.replicate {
		if w.sawRemote {
			r.Replica = walker.ReplicaRemote
		} else {
			r.Replica = walker.ReplicaLocal
		}
	}
	w.EndSpan(&r)
	return r
}

// installReplica maps (va -> frame) into the walking node's replica
// table, creating the table on first use. Replica table pages come from
// the node's own memory region, which is what makes subsequent walks
// node-local. Installation is OS work off the walk's critical path, so
// it charges nothing; failures (node out of memory) just leave future
// walks falling back to the master.
func (w *numaWalker) installReplica(va arch.VAddr, frame arch.PAddr, ps arch.PageSize) {
	rep := w.replicas[w.node]
	if rep == nil {
		t, err := pagetable.NewWithDepth(w.phys.OnNode(w.node), w.levels)
		if err != nil {
			return
		}
		rep = t
		w.replicas[w.node] = t
	}
	_ = rep.Map(arch.PageBase(va, ps), frame, ps)
}

// Flush implements walker.Engine: a context switch drops the PSCs and
// every replica — the replicas mirror the departing address space's
// table. Replica table pages are abandoned to the allocator's bump
// region until the next machine Reset (the model never context-switches
// inside a measured region).
func (w *numaWalker) Flush() {
	w.Walker.Flush()
	clear(w.replicas)
}

// InvalidateBlock implements walker.Engine: the promotion shootdown
// clears the PDE-cache entry and punches the covering PDE out of every
// replica, so the next walk on each node re-syncs the promoted 2 MB
// leaf from the master.
func (w *numaWalker) InvalidateBlock(va arch.VAddr) {
	w.Walker.InvalidateBlock(va)
	for _, rep := range w.replicas {
		if rep != nil {
			w.clearPDE(rep, va)
		}
	}
}

// clearPDE zeroes the PD-level entry covering va in a replica table via
// raw physical writes (software shootdown; architecturally quiet).
func (w *numaWalker) clearPDE(t *pagetable.Table, va arch.VAddr) {
	base := t.Root()
	for level := t.Top(); level > arch.LevelPD; level-- {
		e := pagetable.PTE(w.phys.Read64(pagetable.EntryAddr(base, level, va)))
		if !e.Present() || e.IsLeaf(level) {
			return
		}
		base = e.Frame()
	}
	w.phys.Write64(pagetable.EntryAddr(base, arch.LevelPD, va), 0)
}

// Reset implements walker.Engine.
func (w *numaWalker) Reset() {
	w.Walker.Reset()
	clear(w.replicas)
	w.node = 0
}

// Nodes implements Migratory.
func (w *numaWalker) Nodes() int { return w.nodes }

// SetNode implements Migratory: the thread lands on node n with cold
// per-core walk caches (the machine flushes the TLBs; the PSCs flush
// here).
func (w *numaWalker) SetNode(n int) {
	n %= w.nodes
	if n == w.node {
		return
	}
	w.node = n
	w.Walker.Flush()
}

// Node returns the current executing node (test/debug helper).
func (w *numaWalker) Node() int { return w.node }

// ReplicaLive reports whether node n has a materialized replica table
// (test/debug helper).
func (w *numaWalker) ReplicaLive(n int) bool { return w.replicas[n] != nil }
