package micro

import (
	"sort"

	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// btree is a B+tree index probe kernel: random point lookups descending a
// bulk-loaded tree in guest memory — the pointer-chasing index pattern of
// in-memory databases. Ladder parameter: number of keys.

// btreeFanout is the node fanout (8 keys + 8 children = one 128-byte
// node, two cache lines).
const btreeFanout = 8

// nodeWords is the guest-memory size of one node in 8-byte words.
const nodeWords = 2 * btreeFanout

// noKey pads unused key slots; all real keys are smaller.
const noKey = ^uint64(0)

type btree struct {
	m     *machine.Machine
	nodes workloads.Array
	root  uint64 // node index
	keys  []uint64
	rng   *workloads.RNG

	// found counts successful probes (sanity telemetry).
	found uint64
}

var btreeLadder = []uint64{1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21, 1 << 22, 1 << 23}

// hostNode is the bulk-loader's staging form.
type hostNode struct {
	keys     [btreeFanout]uint64
	children [btreeFanout]uint64
	n        int
	leaf     bool
}

func newBTree(m *machine.Machine, nkeys uint64) (workloads.Instance, error) {
	rng := workloads.NewRNG(nkeys ^ 0xb7ee)
	keySet := make(map[uint64]bool, nkeys)
	keys := make([]uint64, 0, nkeys)
	for uint64(len(keys)) < nkeys {
		k := rng.Next() >> 1 // keep below noKey
		if !keySet[k] {
			keySet[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Bulk-load bottom-up: leaves hold (key, value) pairs, internal
	// nodes hold separator keys (max key of each child subtree).
	var nodes []hostNode
	level := make([]uint64, 0, (nkeys+btreeFanout-1)/btreeFanout) // node indices
	maxKey := make([]uint64, 0, cap(level))
	for i := 0; i < len(keys); i += btreeFanout {
		var n hostNode
		n.leaf = true
		for j := 0; j < btreeFanout; j++ {
			if i+j < len(keys) {
				n.keys[j] = keys[i+j]
				n.children[j] = keys[i+j] ^ 0x5a5a // the stored "value"
				n.n++
			} else {
				n.keys[j] = noKey
			}
		}
		level = append(level, uint64(len(nodes)))
		maxKey = append(maxKey, n.keys[n.n-1])
		nodes = append(nodes, n)
	}
	for len(level) > 1 {
		var nextLevel []uint64
		var nextMax []uint64
		for i := 0; i < len(level); i += btreeFanout {
			var n hostNode
			for j := 0; j < btreeFanout; j++ {
				if i+j < len(level) {
					n.keys[j] = maxKey[i+j]
					n.children[j] = level[i+j]
					n.n++
				} else {
					n.keys[j] = noKey
				}
			}
			nextLevel = append(nextLevel, uint64(len(nodes)))
			nextMax = append(nextMax, n.keys[n.n-1])
			nodes = append(nodes, n)
		}
		level, maxKey = nextLevel, nextMax
	}

	arr, err := workloads.NewArray(m, uint64(len(nodes))*nodeWords)
	if err != nil {
		return nil, err
	}
	// Node i's words are its keys then its children.
	workloads.FillRuns(uint64(len(nodes))*nodeWords, func(s uint64, runs [][]uint64) {
		for k := range runs[0] {
			w := s + uint64(k)
			n, j := &nodes[w/nodeWords], w%nodeWords
			if j < btreeFanout {
				runs[0][k] = n.keys[j]
			} else {
				runs[0][k] = n.children[j-btreeFanout]
			}
		}
	}, arr)
	return &btree{m: m, nodes: arr, root: level[0], keys: keys, rng: rng}, nil
}

// probe performs one timed point lookup and returns the stored value.
func (t *btree) probe(key uint64) (uint64, bool) {
	idx := t.root
	for depth := 0; depth < 64; depth++ {
		base := idx * nodeWords
		slot := -1
		for j := 0; j < btreeFanout; j++ {
			k := t.nodes.Get(base + uint64(j))
			le := key <= k
			t.m.Branch(0xB7E1, le)
			t.m.Ops(1)
			if le {
				slot = j
				break
			}
		}
		if slot < 0 {
			return 0, false // beyond the max key
		}
		child := t.nodes.Get(base + uint64(btreeFanout+slot))
		if t.isLeaf(idx) {
			k := t.nodes.Get(base + uint64(slot))
			hit := k == key
			t.m.Branch(0xB7E2, hit)
			if hit {
				return child, true
			}
			return 0, false
		}
		idx = child
	}
	return 0, false
}

// isLeaf: bulk-loading appends leaves first, so leaf node indices are
// below the first internal node index — which equals the leaf count.
func (t *btree) isLeaf(idx uint64) bool {
	leaves := (uint64(len(t.keys)) + btreeFanout - 1) / btreeFanout
	return idx < leaves
}

func (t *btree) Run(budget uint64) {
	bud := workloads.NewBudget(t.m, budget)
	n := uint64(len(t.keys))
	for i := uint64(0); ; i++ {
		key := t.keys[t.rng.Intn(n)]
		if _, ok := t.probe(key); ok {
			t.found++
		}
		t.m.Ops(4)
		if i&255 == 0 && bud.Done() {
			return
		}
	}
}

func init() {
	workloads.Register(&workloads.Spec{
		Program:   "btree",
		Generator: "rand",
		Suite:     "micro",
		Kind:      "index probe (ST)",
		Ladder:    btreeLadder,
		Build: func(m *machine.Machine, nkeys uint64) (workloads.Instance, error) {
			return newBTree(m, nkeys)
		},
	})
}
