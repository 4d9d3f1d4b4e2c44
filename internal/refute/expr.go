// Package refute treats the repo's counter identities the way
// CounterPoint treats microarchitectural assumptions: as falsifiable
// observables. Every identity the analysis code relies on — the
// Equation 1 multiplicative WCPI decomposition, the
// walk_duration = guest + ept split, the Table VI outcome orderings,
// the sampler's ring-overflow accounting — is declared once as data
// (name, expression over perf events and derived metrics, relation,
// tolerance, scope) and evaluated online against every campaign unit's
// measured counters. A violation is pinned to the unit's measured
// cycle range on a dedicated `refute` timeline track and aggregated
// into a deterministic report that is byte-identical between serial
// and parallel campaign schedules.
package refute

import (
	"fmt"
	"strings"

	"atscale/internal/perf"
)

// opKind discriminates expression nodes.
type opKind uint8

const (
	opEvent opKind = iota
	opField
	opMetric
	opConst
	opSum
	opSub
	opMul
)

// Expr is one side of an identity: a small arithmetic expression over
// perf events, derived metrics, and per-unit observability scalars.
// Exprs are plain data built by the constructors below; Eval is a pure
// function of the Unit, so evaluating the same unit twice (or on two
// campaign schedules) yields bit-identical float64s.
type Expr struct {
	op   opKind
	ev   perf.Event
	name string // event / field / metric spelling, for rendering
	val  float64
	args []Expr
}

// Ev references a perf event by its perf-tool spelling. Unknown names
// panic at registry-construction time — and fail `atlint` before that:
// the eventname analyzer vets every constant string passed to Ev
// against the live event table, so a typo'd identity is a lint error,
// not a vacuously-holding check.
func Ev(name string) Expr {
	e, err := perf.ByName(name)
	if err != nil {
		panic(fmt.Sprintf("refute: identity references %v", err))
	}
	return Expr{op: opEvent, ev: e, name: name}
}

// metricTable maps derived-metric names to accessors over the unit's
// precomputed perf.Metrics. Kept deliberately small: identities should
// mostly relate raw events; metrics appear only where the identity *is*
// about the derivation (the Eq. 1 product).
var metricTable = map[string]func(*Unit) float64{
	"wcpi":        func(u *Unit) float64 { return u.Metrics.WCPI },
	"eq1_product": func(u *Unit) float64 { return u.Metrics.Eq1.Product() },
}

// Metric references a derived metric by name ("wcpi", "eq1_product").
// Unknown names panic at registry-construction time.
func Metric(name string) Expr {
	if _, ok := metricTable[name]; !ok {
		panic(fmt.Sprintf("refute: identity references unknown metric %q", name))
	}
	return Expr{op: opMetric, name: name}
}

// fieldTable maps observability-scalar names to Unit fields. These
// cover the state that is not a PMU counter but participates in
// accounting identities: the sample ring's capacity and drop counts,
// the aggregate event mass the drained samples stand for, and the
// machine's per-flush wrong-path access cap.
var fieldTable = map[string]func(*Unit) float64{
	"samples_drained":       func(u *Unit) float64 { return float64(u.SamplesDrained) },
	"samples_captured":      func(u *Unit) float64 { return float64(u.SamplesCaptured) },
	"samples_dropped":       func(u *Unit) float64 { return float64(u.SamplesDropped) },
	"sample_capacity":       func(u *Unit) float64 { return float64(u.SampleCapacity) },
	"sample_weight":         func(u *Unit) float64 { return float64(u.SampleWeight) },
	"sample_dropped_weight": func(u *Unit) float64 { return float64(u.SampleDroppedWeight) },
	"sample_events_total":   func(u *Unit) float64 { return float64(u.SampleEventsTotal) },
	"sample_slack":          func(u *Unit) float64 { return float64(u.SampleSlack) },
	"wrong_path_cap":        func(u *Unit) float64 { return float64(u.WrongPathCap) },
}

// Field references a per-unit observability scalar by name. Unknown
// names panic at registry-construction time.
func Field(name string) Expr {
	if _, ok := fieldTable[name]; !ok {
		panic(fmt.Sprintf("refute: identity references unknown field %q", name))
	}
	return Expr{op: opField, name: name}
}

// Const is a numeric literal.
func Const(v float64) Expr { return Expr{op: opConst, val: v} }

// Sum adds its operands.
func Sum(xs ...Expr) Expr { return Expr{op: opSum, args: xs} }

// Sub subtracts b from a.
func Sub(a, b Expr) Expr { return Expr{op: opSub, args: []Expr{a, b}} }

// Mul multiplies its operands.
func Mul(xs ...Expr) Expr { return Expr{op: opMul, args: xs} }

// Eval evaluates the expression against one unit's data.
func (x Expr) Eval(u *Unit) float64 {
	switch x.op {
	case opEvent:
		return float64(u.Counters.Get(x.ev))
	case opField:
		return fieldTable[x.name](u)
	case opMetric:
		return metricTable[x.name](u)
	case opConst:
		return x.val
	case opSum:
		var s float64
		for _, a := range x.args {
			s += a.Eval(u)
		}
		return s
	case opSub:
		return x.args[0].Eval(u) - x.args[1].Eval(u)
	case opMul:
		s := 1.0
		for _, a := range x.args {
			s *= a.Eval(u)
		}
		return s
	}
	return 0
}

// String renders the expression deterministically, in identity-report
// spelling: event names verbatim, fields in angle brackets, metrics in
// square brackets.
func (x Expr) String() string {
	switch x.op {
	case opEvent:
		return x.name
	case opField:
		return "<" + x.name + ">"
	case opMetric:
		return "[" + x.name + "]"
	case opConst:
		return fmt.Sprintf("%g", x.val)
	case opSum:
		return "(" + joinExprs(x.args, " + ") + ")"
	case opSub:
		return "(" + x.args[0].String() + " - " + x.args[1].String() + ")"
	case opMul:
		return "(" + joinExprs(x.args, " * ") + ")"
	}
	return "?"
}

func joinExprs(xs []Expr, sep string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = x.String()
	}
	return strings.Join(parts, sep)
}
