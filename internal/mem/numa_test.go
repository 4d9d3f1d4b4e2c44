package mem

import (
	"fmt"
	"testing"

	"atscale/internal/arch"
)

func TestNUMASingleNodeIsPlain(t *testing.T) {
	p := NewPhysNUMA(8*arch.GB, 1)
	if p.Nodes() != 1 {
		t.Fatalf("Nodes() = %d, want 1", p.Nodes())
	}
	plain := NewPhys(8 * arch.GB)
	for i := 0; i < 100; i++ {
		a, err1 := p.AllocPage(arch.Page4K)
		b, err2 := plain.AllocPage(arch.Page4K)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Fatalf("NUMA(1) alloc %d = %#x, plain = %#x; single-node layout must match NewPhys",
				i, uint64(a), uint64(b))
		}
		if p.NodeOf(a) != 0 {
			t.Fatalf("NodeOf(%#x) = %d on a single-node Phys", uint64(a), p.NodeOf(a))
		}
	}
}

func TestNUMANodePlacement(t *testing.T) {
	p := NewPhysNUMA(8*arch.GB, 2)
	if p.Nodes() != 2 {
		t.Fatalf("Nodes() = %d, want 2", p.Nodes())
	}
	for node := 0; node < 2; node++ {
		for _, ps := range []arch.PageSize{arch.Page4K, arch.Page2M} {
			pa, err := p.AllocPageOnNode(ps, node)
			if err != nil {
				t.Fatalf("AllocPageOnNode(%v, %d): %v", ps, node, err)
			}
			if got := p.NodeOf(pa); got != node {
				t.Errorf("NodeOf(%#x) = %d, want %d", uint64(pa), got, node)
			}
			if !arch.IsAligned(uint64(pa), ps.Bytes()) {
				t.Errorf("node %d %v frame %#x misaligned", node, ps, uint64(pa))
			}
		}
	}
	// Plain AllocPage defaults to node 0.
	pa, err := p.AllocPage(arch.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if p.NodeOf(pa) != 0 {
		t.Errorf("AllocPage landed on node %d, want 0", p.NodeOf(pa))
	}
}

func TestNUMAFreeListStaysOnNode(t *testing.T) {
	p := NewPhysNUMA(8*arch.GB, 2)
	pa, err := p.AllocPageOnNode(arch.Page4K, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.FreePage(pa, arch.Page4K)
	// The freed frame must come back from node 1's free list, not leak
	// into node 0's allocations.
	pb, err := p.AllocPageOnNode(arch.Page4K, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pb != pa {
		t.Errorf("node-1 realloc = %#x, want recycled %#x", uint64(pb), uint64(pa))
	}
}

func TestNUMAResetRewindsEveryNode(t *testing.T) {
	p := NewPhysNUMA(8*arch.GB, 2)
	first := make([]arch.PAddr, 2)
	for node := range first {
		pa, err := p.AllocPageOnNode(arch.Page4K, node)
		if err != nil {
			t.Fatal(err)
		}
		first[node] = pa
	}
	// Dirty both nodes, then rewind.
	for i := 0; i < 50; i++ {
		if _, err := p.AllocPageOnNode(arch.Page4K, i%2); err != nil {
			t.Fatal(err)
		}
	}
	p.Reset()
	for node := range first {
		pa, err := p.AllocPageOnNode(arch.Page4K, node)
		if err != nil {
			t.Fatal(err)
		}
		if pa != first[node] {
			t.Errorf("node %d post-Reset alloc = %#x, want %#x (bump pointer not rewound)",
				node, uint64(pa), uint64(first[node]))
		}
	}
}

func TestNUMAOnNodeView(t *testing.T) {
	p := NewPhysNUMA(8*arch.GB, 2)
	v := p.OnNode(1)
	pa, err := v.AllocPage(arch.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if p.NodeOf(pa) != 1 {
		t.Errorf("OnNode(1) view allocated on node %d", p.NodeOf(pa))
	}
	// Reads and writes go to the same backing bytes as the parent.
	v.Write64(pa, 0xdead_beef)
	if got := p.Read64(pa); got != 0xdead_beef {
		t.Errorf("view write invisible through parent: %#x", got)
	}
}

func TestNUMANodeOfClamps(t *testing.T) {
	p := NewPhysNUMA(8*arch.GB, 2)
	// Addresses beyond the last node's start still classify as the last
	// node (the final region absorbs the division remainder).
	huge := arch.PAddr(^uint64(0) >> 1)
	if got := p.NodeOf(huge); got != 1 {
		t.Errorf("NodeOf(max) = %d, want clamp to last node", got)
	}
}

// TestReconfigureMatchesNew: a memory reconfigured to another capacity
// and node count is equal to a new one of that layout given the same
// allocations and writes, and serves them from the host memory it
// already holds: it carves nothing after the largest layout's writes.
func TestReconfigureMatchesNew(t *testing.T) {
	dirty := func(p *Phys) {
		t.Helper()
		for node := 0; node < p.Nodes(); node++ {
			for _, ps := range []arch.PageSize{arch.Page4K, arch.Page2M, arch.Page4K} {
				pa, err := p.AllocPageOnNode(ps, node)
				if err != nil {
					t.Fatal(err)
				}
				for off := uint64(0); off < 16*chunkBytes && off < ps.Bytes(); off += 512 {
					p.Write64(pa+arch.PAddr(off), uint64(pa)+off|1)
				}
			}
		}
		pa, _ := p.AllocPageOnNode(arch.Page2M, p.Nodes()-1)
		p.Write64(pa, 1)
		p.FreePage(pa, arch.Page2M)
	}
	p := NewPhysNUMA(4*arch.GB, 3)
	dirty(p)
	left := uncarved(p)
	for _, l := range []struct {
		limit uint64
		nodes int
	}{{8 * arch.GB, 1}, {arch.GB, 1}, {8 * arch.GB, 2}, {4 * arch.GB, 3}} {
		name := fmt.Sprintf("%s on %d nodes", arch.FormatBytes(l.limit), l.nodes)
		p.Reconfigure(l.limit, l.nodes)
		fresh := NewPhysNUMA(l.limit, l.nodes)
		if !p.Equal(fresh) {
			t.Fatalf("%s: reconfigured memory differs from a new one", name)
		}
		dirty(p)
		dirty(fresh)
		if !p.Equal(fresh) {
			t.Errorf("%s: reconfigured memory differs from a new one given the same writes", name)
		}
		fresh.Release()
		if got := uncarved(p); got != left {
			t.Errorf("%s: %d chunks carved from the host slab, want none", name, left-got)
		}
	}
	p.Release()
}
