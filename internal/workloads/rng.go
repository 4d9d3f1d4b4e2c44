package workloads

// RNG is a small deterministic generator (splitmix64) for input
// construction and workload drivers. Generators must be reproducible per
// (workload, size): the same instance is rebuilt identically for the 4 KB,
// 2 MB and 1 GB runs the overhead methodology compares.
type RNG struct{ s uint64 }

// gamma is SplitMix64's state increment per draw.
const gamma = 0x9E3779B97F4A7C15

// NewRNG seeds a generator. Seed 0 is remapped so the stream is never
// degenerate.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = gamma
	}
	return &RNG{s: seed}
}

// Next returns the next 64-bit value.
func (r *RNG) Next() uint64 {
	r.s += gamma
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Skip advances the generator past k draws in constant time: the state
// after k draws is s + k·gamma, modulo 2^64.
func (r *RNG) Skip(k uint64) { r.s += k * gamma }

// Intn returns a value in [0, n). n must be positive.
func (r *RNG) Intn(n uint64) uint64 { return r.Next() % n }

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}
