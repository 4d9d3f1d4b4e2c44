// Package kvstore implements the memcached-uniform workload of the
// paper's Table I: an in-memory key-value cache (chained hash table, CLOCK
// eviction, slab-style value storage) driven by a YCSB-style uniform key
// distribution.
//
// The input-size parameter is the cache capacity in items, mirroring
// memcached's -m memory bound; the key space is fixed across the ladder,
// so the cache hit rate rises with footprint — the mechanism the paper
// blames for memcached's nonlinear overhead scaling (§V-A).
package kvstore

import (
	"math"

	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// valueWords is the value payload size in 8-byte words (a 64-byte value,
// typical of the small-object memcached deployments YCSB models).
const valueWords = 8

// keyspaceFactor fixes the key space at factor * the largest ladder
// capacity, so hit rates sweep from ~0.1% to ~25% across the ladder.
const keyspaceFactor = 4

var ladder = []uint64{1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21}

func keyspace() uint64 { return keyspaceFactor * ladder[len(ladder)-1] }

// keySampler draws request keys from the key space (uniform for the
// paper's workload; zipfian as the extension variant).
type keySampler func(rng *workloads.RNG) uint64

// store is the guest-memory cache. Chain links are slot+1 so 0 means nil.
type store struct {
	m        *machine.Machine
	capacity uint64
	sample   keySampler

	buckets workloads.Array // capacity entries: head slot+1 or 0
	next    workloads.Array // per slot: next slot+1 or 0
	keys    workloads.Array // per slot: key
	refs    workloads.Array // per slot: CLOCK reference bit
	vals    workloads.Array // capacity * valueWords

	hand uint64 // CLOCK hand
	rng  *workloads.RNG

	// hits/misses are workload-level telemetry (the KV-cache hit rate
	// the paper discusses), not hardware counters.
	hits, misses uint64
}

func newStore(m *machine.Machine, capacity uint64) (*store, error) {
	return newStoreSampler(m, capacity, uniformSampler)
}

func newStoreSampler(m *machine.Machine, capacity uint64, sample keySampler) (*store, error) {
	s := &store{m: m, capacity: capacity, sample: sample, rng: workloads.NewRNG(capacity ^ 0x6d656d63)}
	var err error
	if s.buckets, err = workloads.NewArray(m, capacity); err != nil {
		return nil, err
	}
	if s.next, err = workloads.NewArray(m, capacity); err != nil {
		return nil, err
	}
	if s.keys, err = workloads.NewArray(m, capacity); err != nil {
		return nil, err
	}
	if s.refs, err = workloads.NewArray(m, capacity); err != nil {
		return nil, err
	}
	if s.vals, err = workloads.NewArray(m, capacity*valueWords); err != nil {
		return nil, err
	}
	s.warmFill()
	return s, nil
}

func (s *store) hash(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xFF51AFD7ED558CCD
	key ^= key >> 33
	return key % s.capacity
}

// warmFill loads the cache to capacity with distinct keys, untimed — the
// measured region starts from the steady state a long-running memcached
// would be in (the paper's warmup dry run).
func (s *store) warmFill() {
	seen := make(map[uint64]bool, s.capacity)
	var val [valueWords]uint64
	slot := uint64(0)
	for slot < s.capacity {
		key := s.rng.Intn(keyspace())
		if seen[key] {
			continue
		}
		seen[key] = true
		h := s.hash(key)
		head := s.buckets.Peek(h)
		s.next.Poke(slot, head)
		s.buckets.Poke(h, slot+1)
		s.keys.Poke(slot, key)
		for w := range val {
			val[w] = key ^ uint64(w)
		}
		s.vals.PokeRun(slot*valueWords, val[:])
		slot++
	}
}

// get looks key up, reading the value on a hit (timed).
func (s *store) get(key uint64) bool {
	h := s.hash(key)
	s.m.Ops(4) // hash arithmetic
	idx := s.buckets.Get(h)
	for idx != 0 {
		k := s.keys.Get(idx - 1)
		match := k == key
		s.m.Branch(0x6301, match)
		if match {
			var sink uint64
			for w := uint64(0); w < valueWords; w++ {
				sink ^= s.vals.Get((idx-1)*valueWords + w)
			}
			s.m.Ops(valueWords)
			s.refs.Set(idx-1, 1)
			s.hits++
			return true
		}
		idx = s.next.Get(idx - 1)
	}
	s.misses++
	return false
}

// insert adds key after a miss (read-through fill), evicting a CLOCK
// victim (timed).
func (s *store) insert(key uint64) {
	victim := s.evict()
	// Unlink the victim from its old chain.
	oldKey := s.keys.Get(victim)
	s.unlink(oldKey, victim)
	// Link into its new bucket and write the value.
	h := s.hash(key)
	s.m.Ops(4)
	head := s.buckets.Get(h)
	s.next.Set(victim, head)
	s.buckets.Set(h, victim+1)
	s.keys.Set(victim, key)
	for w := uint64(0); w < valueWords; w++ {
		s.vals.Set(victim*valueWords+w, key^w)
	}
	s.refs.Set(victim, 0)
}

// evict advances the CLOCK hand to the next unreferenced slot.
func (s *store) evict() uint64 {
	for {
		r := s.refs.Get(s.hand)
		victim := r == 0
		s.m.Branch(0x6302, victim)
		slot := s.hand
		if victim {
			s.hand = (s.hand + 1) % s.capacity
			return slot
		}
		s.refs.Set(slot, 0)
		s.hand = (s.hand + 1) % s.capacity
		s.m.Ops(2)
	}
}

// unlink removes slot from the chain of key's bucket.
func (s *store) unlink(key uint64, slot uint64) {
	h := s.hash(key)
	s.m.Ops(4)
	idx := s.buckets.Get(h)
	if idx == slot+1 {
		s.buckets.Set(h, s.next.Get(slot))
		return
	}
	for idx != 0 {
		nxt := s.next.Get(idx - 1)
		found := nxt == slot+1
		s.m.Branch(0x6303, found)
		if found {
			s.next.Set(idx-1, s.next.Get(slot))
			return
		}
		idx = nxt
	}
}

// uniformSampler is the paper's YCSB-uniform key distribution.
func uniformSampler(rng *workloads.RNG) uint64 { return rng.Intn(keyspace()) }

// zipfSampler is YCSB's zipfian distribution (s = 0.99, approximated by
// inverse-CDF), with keys scrambled so hot keys scatter over the key
// space the way YCSB's hashed zipfian does.
func zipfSampler(rng *workloads.RNG) uint64 {
	n := float64(keyspace())
	u := rng.Float64()
	rank := math.Pow(math.Pow(n, 0.01)*u+1, 100) // (n^(1-s)u + 1)^(1/(1-s)), s=0.99
	if rank >= n {
		rank = n - 1
	}
	return (uint64(rank) * 0x9E3779B97F4A7C15) % keyspace()
}

// Run drives GETs (with read-through inserts on miss) using the store's
// key distribution.
func (s *store) Run(budget uint64) {
	bud := workloads.NewBudget(s.m, budget)
	for i := 0; ; i++ {
		key := s.sample(s.rng)
		hit := s.get(key)
		s.m.Branch(0x6304, hit)
		if !hit {
			s.insert(key)
		}
		s.m.Ops(6) // request parsing / protocol work
		if i&255 == 0 && bud.Done() {
			return
		}
	}
}

// HitRate returns the KV-level hit rate observed so far.
func (s *store) HitRate() float64 {
	total := s.hits + s.misses
	if total == 0 {
		return 0
	}
	return float64(s.hits) / float64(total)
}

func init() {
	workloads.Register(&workloads.Spec{
		Program:   "memcached",
		Generator: "uniform",
		Suite:     "ycsb",
		Kind:      "key-value store (MT)",
		Ladder:    ladder,
		Build: func(m *machine.Machine, capacity uint64) (workloads.Instance, error) {
			return newStore(m, capacity)
		},
	})
	// The zipfian variant is an extension (YCSB's other canonical
	// distribution), registered outside the paper's Table I suite set.
	workloads.Register(&workloads.Spec{
		Program:   "memcached",
		Generator: "zipfian",
		Suite:     "ycsb-ext",
		Kind:      "key-value store (MT)",
		Ladder:    ladder,
		Build: func(m *machine.Machine, capacity uint64) (workloads.Instance, error) {
			return newStoreSampler(m, capacity, zipfSampler)
		},
	})
}
