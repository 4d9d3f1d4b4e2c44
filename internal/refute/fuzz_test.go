package refute

import (
	"encoding/binary"
	"math"
	"testing"

	"atscale/internal/perf"
)

// FuzzIdentityEval throws arbitrary counter vectors and ring accounting
// at the full identity registry. Whatever the counters say — including
// states no correct simulator can produce — evaluation must not panic,
// every residual must be finite and non-negative, and re-evaluating the
// same unit must be bit-identical (the determinism the report's
// byte-identical contract rests on).
func FuzzIdentityEval(f *testing.F) {
	f.Add([]byte{}, false, false)
	f.Add(bytes64(1, 2, 3, 4, 5, 6, 7, 8), true, false)
	f.Add(bytes64(math.MaxUint64, 0, math.MaxUint64, 1), false, true)
	f.Add(bytes64(1_000_000, 2_000_000, 400_000, 8_500, 7_700, 105_000), true, true)

	ids := Identities()
	f.Fuzz(func(t *testing.T, data []byte, virt, sampling bool) {
		u := Unit{Name: "fuzz", Virt: virt, Sampling: sampling, EndCycle: 1}
		// The first 9 words (when present) drive the ring accounting
		// and the wrong-path cap, the rest scatter over the counter vector.
		fields := []*uint64{
			&u.SamplesDrained, &u.SamplesCaptured, &u.SamplesDropped,
			&u.SampleCapacity, &u.SampleWeight, &u.SampleDroppedWeight,
			&u.SampleEventsTotal, &u.SampleSlack, &u.WrongPathCap,
		}
		for i := 0; i+8 <= len(data); i += 8 {
			v := binary.LittleEndian.Uint64(data[i : i+8])
			if w := i / 8; w < len(fields) {
				*fields[w] = v
			} else {
				// Cap counter magnitudes so derived-metric arithmetic stays
				// finite; the simulator's counters are bounded by cycle
				// counts anyway.
				u.Counters.Add(perf.Event(w)%perf.NumEvents, v%(1<<52))
			}
		}
		u.Metrics = perf.Compute(u.Counters)

		for i := range ids {
			id := &ids[i]
			if !id.inScope(&u) || !id.guarded(&u) {
				continue
			}
			l1, r1, res1 := id.residual(&u)
			l2, r2, res2 := id.residual(&u)
			if res1 < 0 || math.IsNaN(res1) || math.IsInf(res1, 0) {
				t.Fatalf("%s: residual %g not a finite non-negative number (l=%g r=%g)",
					id.Name, res1, l1, r1)
			}
			if l1 != l2 || r1 != r2 || res1 != res2 {
				t.Fatalf("%s: evaluation not deterministic: (%g,%g,%g) vs (%g,%g,%g)",
					id.Name, l1, r1, res1, l2, r2, res2)
			}
		}

		// The checker layer must digest the same unit without panicking,
		// whatever mix of holds and violations it sees.
		c := NewChecker()
		out := c.CheckUnit(u, nil)
		if out.Checked+out.Skipped != len(ids) {
			t.Fatalf("checked %d + skipped %d != %d identities",
				out.Checked, out.Skipped, len(ids))
		}
	})
}

// bytes64 packs words little-endian for fuzz seeds.
func bytes64(ws ...uint64) []byte {
	b := make([]byte, 8*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return b
}
