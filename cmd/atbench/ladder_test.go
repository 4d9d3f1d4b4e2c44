package main

import (
	"math"
	"testing"
	"time"
)

// spin busy-waits for d, a delay the ladder must attribute.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestLadderAttributesInjectedDelays builds a synthetic three-rung ladder
// over n items: layer a costs da on every item, layer b costs db on every
// other item, and the full replay adds dr per item that no rung makes.
// The attribution must recover each per-call cost and the residual.
func TestLadderAttributesInjectedDelays(t *testing.T) {
	const (
		n  = 400
		da = 20 * time.Microsecond
		db = 50 * time.Microsecond
		dr = 10 * time.Microsecond
	)
	pass := func(rung int, residual bool) uint64 {
		var calls uint64
		for i := 0; i < n; i++ {
			if rung >= 1 {
				spin(da)
				if rung == 1 {
					calls++
				}
			}
			if rung >= 2 && i%2 == 0 {
				spin(db)
				if rung == 2 {
					calls++
				}
			}
			if residual {
				spin(dr)
			}
		}
		return calls
	}
	l := ladder{
		layers:      []string{"base", "a", "b"},
		prepare:     func(int) {},
		pass:        func(rung int) uint64 { return pass(rung, false) },
		prepareFull: func() error { return nil },
		full:        func() error { pass(2, true); return nil },
	}
	a, err := l.climb(3, time.Now().Add(time.Minute), nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Reps != 3 {
		t.Errorf("reps = %d, want 3", a.Reps)
	}
	if len(a.Layers) != 2 {
		t.Fatalf("layers = %+v, want a and b", a.Layers)
	}
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.25*want {
			t.Errorf("%s = %.0f ns, want %.0f ns within 25%%", what, got, want)
		}
	}
	if c := a.Layers[0]; c.Name != "a" || c.Calls != n {
		t.Errorf("layer a = %+v, want %d calls", c, n)
	}
	if c := a.Layers[1]; c.Name != "b" || c.Calls != n/2 {
		t.Errorf("layer b = %+v, want %d calls", c, n/2)
	}
	near("a per call", a.Layers[0].perCall(), float64(da))
	near("b per call", a.Layers[1].perCall(), float64(db))
	near("residual", a.ResidualNS, float64(n*dr))
}

// TestLadderStopsAtDeadline runs one repetition when the deadline has
// already passed.
func TestLadderStopsAtDeadline(t *testing.T) {
	l := ladder{
		layers:      []string{"base"},
		prepare:     func(int) {},
		pass:        func(int) uint64 { return 0 },
		prepareFull: func() error { return nil },
		full:        func() error { return nil },
	}
	a, err := l.climb(5, time.Now(), nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Reps != 1 {
		t.Errorf("reps = %d, want 1", a.Reps)
	}
}

// TestSelfTimes subtracts each span's children from its duration.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "unit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "build", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "steady", Start: 30, End: 90},
		{ID: 4, Parent: 3, Name: "build", Start: 40, End: 50},
	}
	got := map[string]selfTime{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	want := map[string]selfTime{
		"unit":   {Name: "unit", Count: 1, NS: 10},
		"steady": {Name: "steady", Count: 1, NS: 50},
		"build":  {Name: "build", Count: 2, NS: 40},
	}
	if len(got) != len(want) {
		t.Fatalf("self times %+v, want %+v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
}
