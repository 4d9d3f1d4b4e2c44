package refute

import (
	"math"

	"atscale/internal/perf"
)

// Unit is one campaign unit's worth of evidence: the measured region's
// counter delta and derived metrics, the unit's cycle extent for
// violation pinning, and the sampler's ring accounting when sampling
// was armed. core.Run builds one per run unit; tests fabricate them.
type Unit struct {
	// Name is the campaign-unique unit name (core's unitName plus any
	// variant tag). The report and the timeline pin are keyed on it.
	Name string
	// StartCycle / EndCycle bound the measured region on the unit's
	// simulated clock — the cycle range a violation is pinned to.
	StartCycle, EndCycle uint64
	// Virt marks nested-paging units (scopes the ept_* identities).
	Virt bool
	// Sampling marks units that ran with the PEBS-style sampler armed
	// (scopes the ring-accounting identities).
	Sampling bool
	// WrongPathCap is the most wrong-path accesses one pipeline flush
	// issues (the machine's CPU.MaxWrongPathAccesses; 0 when none run).
	WrongPathCap uint64
	// Counters is the measured region's counter delta.
	Counters perf.Counters
	// Metrics is the derived-metric view of Counters.
	Metrics perf.Metrics

	// The sampler's ring accounting (Sampling units only).
	//
	// SamplesDrained is the record count drained after the region;
	// SamplesCaptured is the sampler's lifetime capture count;
	// SamplesDropped / SampleDroppedWeight count ring-overflow losses;
	// SampleCapacity is the ring size; SampleWeight is the sum of the
	// drained records' weights; SampleEventsTotal is the armed events'
	// aggregate delta; SampleSlack is period x armed-event-count — the
	// reconstruction error bound the sampler's weight contract allows.
	SamplesDrained      uint64
	SamplesCaptured     uint64
	SamplesDropped      uint64
	SampleCapacity      uint64
	SampleWeight        uint64
	SampleDroppedWeight uint64
	SampleEventsTotal   uint64
	SampleSlack         uint64
}

// Relation is the asserted ordering between an identity's two sides.
type Relation string

const (
	// EQ asserts L == R within tolerance.
	EQ Relation = "=="
	// GE asserts L >= R (tolerance gives slack below R).
	GE Relation = ">="
	// LE asserts L <= R (tolerance gives slack above R).
	LE Relation = "<="
)

// Scope restricts an identity to the units it is defined over.
type Scope uint8

const (
	// Always checks the identity on every unit.
	Always Scope = iota
	// VirtOnly checks only nested-paging units.
	VirtOnly
	// NativeOnly checks only non-virtualized units.
	NativeOnly
	// SamplingOnly checks only units that ran with the sampler armed.
	SamplingOnly
)

// String returns the scope's report spelling.
func (s Scope) String() string {
	switch s {
	case VirtOnly:
		return "virt"
	case NativeOnly:
		return "native"
	case SamplingOnly:
		return "sampling"
	}
	return "always"
}

// Identity is one declared counter identity: pure data, constructed
// once by Identities() and evaluated against every in-scope unit.
type Identity struct {
	// Name is the identity's stable report key.
	Name string
	// Doc says what microarchitectural assumption the identity encodes.
	Doc string
	// L, Rel, R assert "L Rel R".
	L   Expr
	Rel Relation
	R   Expr
	// Tol is the relative tolerance: the identity holds when the
	// relation's defect, normalized by max(|L|, |R|, 1), stays <= Tol.
	// Integer counter identities use 0 (exact); float derivations use a
	// few ulps' worth.
	Tol float64
	// Scope restricts which units the identity is defined over.
	Scope Scope
	// Guards lists expressions that must all be non-zero for the
	// identity to be evaluated (e.g. Eq. 1 denominators). A guarded-out
	// unit counts as skipped, never as a vacuous hold.
	Guards []Expr
}

// inScope reports whether the identity is defined over u.
func (id *Identity) inScope(u *Unit) bool {
	switch id.Scope {
	case VirtOnly:
		return u.Virt
	case NativeOnly:
		return !u.Virt
	case SamplingOnly:
		return u.Sampling
	}
	return true
}

// guarded reports whether all guard expressions are non-zero on u.
func (id *Identity) guarded(u *Unit) bool {
	for _, g := range id.Guards {
		if g.Eval(u) == 0 {
			return false
		}
	}
	return true
}

// residual returns the relation's normalized defect on u: 0 when the
// relation holds exactly, and the violation magnitude over
// max(|L|, |R|, 1) otherwise. The identity holds iff residual <= Tol.
func (id *Identity) residual(u *Unit) (l, r, res float64) {
	l, r = id.L.Eval(u), id.R.Eval(u)
	var defect float64
	switch id.Rel {
	case EQ:
		defect = math.Abs(l - r)
	case GE:
		defect = math.Max(0, r-l)
	case LE:
		defect = math.Max(0, l-r)
	}
	norm := math.Max(math.Max(math.Abs(l), math.Abs(r)), 1)
	return l, r, defect / norm
}

// Statement renders the identity's asserted relation ("L == R").
func (id *Identity) Statement() string {
	return id.L.String() + " " + string(id.Rel) + " " + id.R.String()
}

// Identities returns the declared identity registry. Every entry is an
// assumption the analysis code already relies on; a violation on any
// unit means either a simulator counter bug or a broken assumption —
// exactly the signal the adversarial sweeps hunt for.
func Identities() []Identity {
	dtlbWalkDuration := Sum(Ev("dtlb_load_misses.walk_duration"), Ev("dtlb_store_misses.walk_duration"))
	walksInitiated := Sum(Ev("dtlb_load_misses.miss_causes_a_walk"), Ev("dtlb_store_misses.miss_causes_a_walk"))
	walksCompleted := Sum(Ev("dtlb_load_misses.walk_completed"), Ev("dtlb_store_misses.walk_completed"))
	walksRetired := Sum(Ev("mem_uops_retired.stlb_miss_loads"), Ev("mem_uops_retired.stlb_miss_stores"))
	accesses := Sum(Ev("mem_uops_retired.all_loads"), Ev("mem_uops_retired.all_stores"))
	walkerLoads := Sum(Ev("page_walker_loads.dtlb_l1"), Ev("page_walker_loads.dtlb_l2"),
		Ev("page_walker_loads.dtlb_l3"), Ev("page_walker_loads.dtlb_memory"))
	eptWalkerLoads := Sum(Ev("page_walker_loads.ept_dtlb_l1"), Ev("page_walker_loads.ept_dtlb_l2"),
		Ev("page_walker_loads.ept_dtlb_l3"), Ev("page_walker_loads.ept_dtlb_memory"))

	return []Identity{
		{
			Name: "eq1_product",
			Doc:  "Equation 1: the four-factor decomposition multiplies back to WCPI",
			L:    Metric("eq1_product"), Rel: EQ, R: Metric("wcpi"),
			Tol: 1e-9,
			Guards: []Expr{Ev("inst_retired.any"), accesses, walksInitiated,
				Sum(walkerLoads, eptWalkerLoads)},
		},
		{
			Name: "walk_duration_split",
			Doc:  "walk_duration decomposes exactly into guest and EPT dimensions (EPT share zero natively)",
			L:    dtlbWalkDuration, Rel: EQ,
			R: Sum(Ev("dtlb_load_misses.walk_duration_guest"),
				Ev("dtlb_store_misses.walk_duration_guest"),
				Ev("ept_misses.walk_duration")),
		},
		{
			Name: "walks_initiated_ge_completed",
			Doc:  "a walk must be initiated before it completes (Table VI: Aborted >= 0)",
			L:    walksInitiated, Rel: GE, R: walksCompleted,
		},
		{
			Name: "walks_completed_ge_retired",
			Doc:  "every retired STLB-missing uop had a completed walk (Table VI: WrongPath >= 0)",
			L:    walksCompleted, Rel: GE, R: walksRetired,
		},
		{
			Name: "accesses_ge_stlb_misses",
			Doc:  "retired STLB misses are a subset of retired accesses",
			L:    accesses, Rel: GE, R: walksRetired,
		},
		{
			Name: "walker_loads_ge_completed",
			Doc:  "every completed walk loads at least its leaf entry",
			L:    Sum(walkerLoads, eptWalkerLoads), Rel: GE, R: walksCompleted,
		},
		{
			Name: "walk_duration_ge_completed",
			Doc:  "every completed walk costs at least one walker cycle",
			L:    dtlbWalkDuration, Rel: GE, R: walksCompleted,
		},
		{
			Name: "guest_duration_le_total",
			Doc:  "the guest-dimension share of walk_duration cannot exceed the total",
			L: Sum(Ev("dtlb_load_misses.walk_duration_guest"),
				Ev("dtlb_store_misses.walk_duration_guest")),
			Rel: LE, R: dtlbWalkDuration,
		},
		{
			// Retired accesses each hit the STLB at most once. So does
			// every wrong-path access, and a pipeline flush (mispredict
			// or machine clear) issues at most <wrong_path_cap> of those.
			Name: "stlb_hits_bound_misses",
			Doc:  "first-level TLB misses split into STLB hits and initiated walks; both are bounded by accesses plus walker traffic",
			L:    Sum(Ev("dtlb_load_misses.stlb_hit"), Ev("dtlb_store_misses.stlb_hit")), Rel: LE,
			R: Sum(accesses, walksInitiated,
				Mul(Sum(Ev("br_misp_retired.all_branches"), Ev("machine_clears.count")), Field("wrong_path_cap"))),
		},
		{
			Name: "ept_initiated_ge_completed",
			Doc:  "an EPT walk must be initiated before it completes",
			L:    Ev("ept_misses.miss_causes_a_walk"), Rel: GE, R: Ev("ept_misses.walk_completed"),
			Scope: VirtOnly,
		},
		{
			Name: "ept_duration_le_total",
			Doc:  "EPT-walk cycles are a share of total walk_duration, never more",
			L:    Ev("ept_misses.walk_duration"), Rel: LE, R: dtlbWalkDuration,
			Scope: VirtOnly,
		},
		{
			Name: "native_ept_zero",
			Doc:  "native runs count nothing in the ept_* domain",
			L: Sum(Ev("ept_misses.miss_causes_a_walk"), Ev("ept_misses.walk_completed"),
				Ev("ept_misses.walk_duration"), Ev("ept_misses.walk_stlb_hit"),
				eptWalkerLoads, Ev("ept.violations")),
			Rel: EQ, R: Const(0),
			Scope: NativeOnly,
		},
		{
			Name: "sampler_ring_capacity",
			Doc:  "the sample ring never holds more records than its capacity",
			L:    Field("samples_drained"), Rel: LE, R: Field("sample_capacity"),
			Scope: SamplingOnly,
		},
		{
			Name: "sampler_no_lost_records",
			Doc:  "one drain after the region returns every captured record",
			L:    Field("samples_drained"), Rel: EQ, R: Field("samples_captured"),
			Scope: SamplingOnly,
		},
		{
			Name: "sampler_drops_only_when_full",
			Doc:  "records drop only when the ring is full: drops imply a full drain",
			L:    Mul(Field("samples_dropped"), Sub(Field("sample_capacity"), Field("samples_drained"))), Rel: EQ, R: Const(0),
			Scope: SamplingOnly,
		},
		{
			Name: "sampler_weight_conservation",
			Doc:  "drained plus dropped sample weights reconstruct the armed events' aggregate count to within one period per armed event",
			L:    Sum(Field("sample_weight"), Field("sample_dropped_weight"), Field("sample_slack")),
			Rel:  GE, R: Field("sample_events_total"),
			Scope:  SamplingOnly,
			Guards: []Expr{Field("sample_events_total")},
		},
		{
			Name: "sampler_weight_le_total",
			Doc:  "sample weights never overcount the armed events",
			L:    Sum(Field("sample_weight"), Field("sample_dropped_weight")), Rel: LE,
			R:     Field("sample_events_total"),
			Scope: SamplingOnly,
		},
	}
}
