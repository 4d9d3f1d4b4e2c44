package mmucache

import (
	"testing"

	"atscale/internal/arch"
)

// TestNTLBLookupInsert runs one nTLB per EPT leaf size, as the nested
// walker builds it: every entry maps one page of that size, and any
// offset within a cached page hits.
func TestNTLBLookupInsert(t *testing.T) {
	for _, size := range []arch.PageSize{arch.Page4K, arch.Page2M} {
		t.Run(size.String(), func(t *testing.T) {
			page := arch.PAddr(size.Bytes())
			n := NewNTLB(4, size)
			if _, _, ok := n.Lookup(page); ok {
				t.Fatal("empty nTLB hit")
			}
			n.Insert(page, 0xa*page)
			if hbase, got, ok := n.Lookup(page); !ok || hbase != 0xa*page || got != size {
				t.Fatalf("lookup = %#x,%v,%v", uint64(hbase), got, ok)
			}
			if _, _, ok := n.Lookup(2*page - 8); !ok {
				t.Error("interior offset missed")
			}
			if _, _, ok := n.Lookup(2 * page); ok {
				t.Error("neighbouring page hit")
			}
			// Re-inserting a cached page refreshes it in place.
			n.Insert(page, 0xb*page)
			if hbase, _, ok := n.Lookup(page); !ok || hbase != 0xb*page || n.Live() != 1 {
				t.Fatalf("re-insert: lookup = %#x,%v with %d live entries, want %#x,true with 1", uint64(hbase), ok, n.Live(), uint64(0xb*page))
			}
		})
	}
}

func TestNTLBLRUEviction(t *testing.T) {
	n := NewNTLB(2, arch.Page4K)
	n.Insert(0x1000, 0xa000)
	n.Insert(0x2000, 0xb000)
	n.Lookup(0x1000) // make 0x1000 the MRU
	n.Insert(0x3000, 0xc000)
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
	off := NewNTLB(0, arch.Page4K)
	off.Insert(0x1000, 0xa000)
	if _, _, ok := off.Lookup(0x1000); ok {
		t.Error("0-entry nTLB cached something")
	}

	n := NewNTLB(4, arch.Page4K)
	n.Insert(0x1000, 0xa000)
	n.Flush()
	if n.Live() != 0 {
		t.Errorf("live after flush = %d", n.Live())
	}
}
