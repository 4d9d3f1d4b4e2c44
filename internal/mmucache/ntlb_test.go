package mmucache

import (
	"testing"

	"atscale/internal/arch"
)

func TestNTLBLookupInsert(t *testing.T) {
	n := NewNTLB(4)
	if _, _, ok := n.Lookup(0x1000); ok {
		t.Fatal("empty nTLB hit")
	}
	n.Insert(0x1000, 0xa000, arch.Page4K)
	if hbase, size, ok := n.Lookup(0x1000); !ok || hbase != 0xa000 || size != arch.Page4K {
		t.Fatalf("lookup = %#x,%v,%v", uint64(hbase), size, ok)
	}
	// Any offset within the cached mapping's page hits.
	if _, _, ok := n.Lookup(0x1ff8); !ok {
		t.Error("interior offset missed")
	}
	if _, _, ok := n.Lookup(0x2000); ok {
		t.Error("neighbouring page hit")
	}
	// Re-inserting a cached page refreshes it in place.
	n.Insert(0x1000, 0xb000, arch.Page4K)
	if hbase, _, ok := n.Lookup(0x1000); !ok || hbase != 0xb000 || n.Live() != 1 {
		t.Fatalf("re-insert: lookup = %#x,%v with %d live entries, want 0xb000,true with 1", uint64(hbase), ok, n.Live())
	}

	// A 2MB mapping covers all its 4KB chunks.
	n.Insert(0x20_0000, 0x40_0000, arch.Page2M)
	if hbase, size, ok := n.Lookup(0x20_0000 + 0x5432); !ok || hbase != 0x40_0000 || size != arch.Page2M {
		t.Fatalf("2MB lookup = %#x,%v,%v", uint64(hbase), size, ok)
	}
}

func TestNTLBLRUEviction(t *testing.T) {
	n := NewNTLB(2)
	n.Insert(0x1000, 0xa000, arch.Page4K)
	n.Insert(0x2000, 0xb000, arch.Page4K)
	n.Lookup(0x1000) // make 0x1000 the MRU
	n.Insert(0x3000, 0xc000, arch.Page4K)
	if _, _, ok := n.Lookup(0x2000); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, _, ok := n.Lookup(0x1000); !ok {
		t.Error("MRU entry was evicted")
	}
	if n.Live() != 2 {
		t.Errorf("live = %d, want 2", n.Live())
	}
}

func TestNTLBDisabledAndFlush(t *testing.T) {
	off := NewNTLB(0)
	off.Insert(0x1000, 0xa000, arch.Page4K)
	if _, _, ok := off.Lookup(0x1000); ok {
		t.Error("0-entry nTLB cached something")
	}

	n := NewNTLB(4)
	n.Insert(0x1000, 0xa000, arch.Page4K)
	n.Flush()
	if n.Live() != 0 {
		t.Errorf("live after flush = %d", n.Live())
	}
}
