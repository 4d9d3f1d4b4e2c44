package pagetable

import (
	"fmt"

	"atscale/internal/arch"
	"atscale/internal/mem"
)

// HashedTable is a clustered hashed page table — the "alternative page
// table data structure" family the paper's discussion points at (hashed
// and cuckoo designs such as Skarlatos et al.'s elastic cuckoo page
// tables). A translation is one hash computation plus a short linear
// probe over cache-line-sized clusters, so walk length does not grow with
// the radix depth — removing the log M component of translation overhead.
//
// Clustering is what makes the structure competitive: one 64-byte cluster
// holds the translations of four consecutive pages (a tag plus four frame
// words), so adjacent-page translations share a cache line just as radix
// PTEs do. Naive one-slot-per-VPN hashing scatters neighbours across the
// table and makes every walk a cold DRAM access — the classic criticism
// of hashed page tables that clustered/ECPT designs answer.
//
// Clusters live in simulated physical memory (2 MB table segments), so
// probes occupy real cache lines exactly like radix PTE loads. The table
// maps 4 KB pages only: mixing page sizes requires parallel per-size
// tables or cuckoo ways, which this model omits (the comparison
// experiment runs 4 KB heaps).
type HashedTable struct {
	phys mem.Memory

	// segments are the 2 MB physical chunks holding clusters.
	segments []arch.PAddr
	initial  uint64 // cluster count at construction (power of two)
	clusters uint64 // total cluster count (power of two)
	occupied uint64 // clusters holding >=1 live entry
	tombs    uint64
	live     uint64 // live page translations
}

// Cluster layout: 8 words = 64 bytes = one cache line.
//
//	word 0:    tag = (vpn >> 2) + 2  (0 = empty, 1 = tombstone)
//	words 1-4: frame | FlagPresent for vpn&3 == 0..3 (0 = hole)
//	words 5-7: padding
const (
	clusterBytes = arch.CacheLineSize
	clusterSpan  = 4 // consecutive VPNs per cluster
	tagEmpty     = 0
	tagTomb      = 1
	tagBias      = 2
)

// ClusterOf decodes the cluster layout for a 4 KB VPN: the group it
// hashes by, the tag word its cluster carries, and the byte offset of
// its frame word within the cluster. The table and the hardware walker
// both address clusters through it.
func ClusterOf(vpn uint64) (group, tag uint64, slot arch.PAddr) {
	group = vpn / clusterSpan
	return group, group + tagBias, slotOffset(vpn % clusterSpan)
}

// slotOffset is the byte offset of frame word sub within a cluster.
func slotOffset(sub uint64) arch.PAddr { return arch.PAddr(8 + sub*8) }

// hashedSeed scrambles cluster groups; fixed so layouts are reproducible.
const hashedSeed = 0x9E3779B97F4A7C15

// MaxProbe bounds a lookup's linear probe in clusters. The resize policy
// keeps the load factor low enough that real chains stay far shorter.
const MaxProbe = 16

// clustersPerSegment is how many clusters one 2 MB segment holds.
const clustersPerSegment = (2 * arch.MB) / clusterBytes

// NewHashed creates a hashed page table with capacity for at least
// initialSlots page translations (rounded up to whole 2 MB segments).
func NewHashed(phys mem.Memory, initialSlots uint64) (*HashedTable, error) {
	n := uint64(clustersPerSegment)
	for n*clusterSpan < initialSlots {
		n *= 2
	}
	t := &HashedTable{phys: phys, initial: n}
	if err := t.Reset(); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset discards every mapping and re-allocates the initial segments,
// returning the table to its just-constructed state. Like Table.Reset it
// expects the underlying physical memory to have been reset first, so
// the segments land where a fresh table's would.
func (t *HashedTable) Reset() error {
	t.segments = t.segments[:0]
	if err := t.addSegments(t.initial); err != nil {
		return err
	}
	t.clusters = t.initial
	t.occupied, t.tombs, t.live = 0, 0, 0
	return nil
}

func (t *HashedTable) addSegments(totalClusters uint64) error {
	need := int(totalClusters / clustersPerSegment)
	for len(t.segments) < need {
		seg, err := t.phys.AllocPage(arch.Page2M)
		if err != nil {
			return fmt.Errorf("pagetable: hashed segment: %w", err)
		}
		t.segments = append(t.segments, seg)
	}
	return nil
}

// ClusterAddr returns the physical address of cluster i — the line a
// hardware hashed-walker loads.
func (t *HashedTable) ClusterAddr(i uint64) arch.PAddr {
	return t.segments[i/clustersPerSegment] + arch.PAddr(i%clustersPerSegment*clusterBytes)
}

// HashGroup returns the starting cluster for a VPN's group (vpn >> 2).
func (t *HashedTable) HashGroup(group uint64) uint64 {
	h := group * hashedSeed
	h ^= h >> 29
	return h & (t.clusters - 1)
}

// Clusters returns the current table size in clusters.
func (t *HashedTable) Clusters() uint64 { return t.clusters }

func (t *HashedTable) readTag(i uint64) uint64 {
	return t.phys.Read64(t.ClusterAddr(i))
}

func (t *HashedTable) frameAddr(i uint64, sub uint64) arch.PAddr {
	return t.ClusterAddr(i) + slotOffset(sub)
}

// find probes for the cluster holding va's translation, returning its
// index and the offset of va's frame word within it.
func (t *HashedTable) find(va arch.VAddr) (uint64, arch.PAddr, bool) {
	group, tag, slot := ClusterOf(arch.PageNumber(va, arch.Page4K))
	h := t.HashGroup(group)
	for p := uint64(0); p < MaxProbe; p++ {
		i := (h + p) & (t.clusters - 1)
		switch t.readTag(i) {
		case tag:
			return i, slot, true
		case tagEmpty:
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// Map installs a 4 KB translation. Superpages are unsupported.
func (t *HashedTable) Map(va arch.VAddr, pa arch.PAddr, ps arch.PageSize) error {
	if ps != arch.Page4K {
		return fmt.Errorf("pagetable: hashed table maps 4KB pages only, got %s", ps)
	}
	if !arch.Canonical(va) {
		return fmt.Errorf("pagetable: non-canonical va %#x", uint64(va))
	}
	if !arch.IsAligned(uint64(va), ps.Bytes()) || !arch.IsAligned(uint64(pa), ps.Bytes()) {
		return fmt.Errorf("pagetable: Map(%#x -> %#x) misaligned", uint64(va), uint64(pa))
	}
	// Grow before density threatens the probe bound.
	if (t.occupied+t.tombs)*10 >= t.clusters*6 {
		if err := t.grow(); err != nil {
			return err
		}
	}
	group, tag, slot := ClusterOf(arch.PageNumber(va, arch.Page4K))
	h := t.HashGroup(group)
	insert := int64(-1)
	for p := uint64(0); p < MaxProbe; p++ {
		i := (h + p) & (t.clusters - 1)
		switch t.readTag(i) {
		case tag:
			if t.phys.Read64(t.ClusterAddr(i)+slot) != 0 {
				return fmt.Errorf("pagetable: va %#x already mapped", uint64(va))
			}
			t.phys.Write64(t.ClusterAddr(i)+slot, uint64(pa)|uint64(FlagPresent))
			t.live++
			return nil
		case tagEmpty:
			if insert < 0 {
				insert = int64(i)
			}
			p = MaxProbe
		case tagTomb:
			if insert < 0 {
				insert = int64(i)
			}
		}
	}
	if insert < 0 {
		if err := t.grow(); err != nil {
			return err
		}
		return t.Map(va, pa, ps)
	}
	i := uint64(insert)
	if t.readTag(i) == tagTomb {
		t.tombs--
	}
	t.phys.Write64(t.ClusterAddr(i), tag)
	for s := uint64(0); s < clusterSpan; s++ {
		t.phys.Write64(t.frameAddr(i, s), 0)
	}
	t.phys.Write64(t.ClusterAddr(i)+slot, uint64(pa)|uint64(FlagPresent))
	t.occupied++
	t.live++
	return nil
}

// Unmap removes a 4 KB translation; an emptied cluster becomes a
// tombstone.
func (t *HashedTable) Unmap(va arch.VAddr, ps arch.PageSize) error {
	if ps != arch.Page4K {
		return fmt.Errorf("pagetable: hashed table maps 4KB pages only, got %s", ps)
	}
	i, slot, ok := t.find(va)
	if !ok || t.phys.Read64(t.ClusterAddr(i)+slot) == 0 {
		return fmt.Errorf("pagetable: Unmap(%#x): not mapped", uint64(va))
	}
	t.phys.Write64(t.ClusterAddr(i)+slot, 0)
	t.live--
	for s := uint64(0); s < clusterSpan; s++ {
		if t.phys.Read64(t.frameAddr(i, s)) != 0 {
			return nil
		}
	}
	t.phys.Write64(t.ClusterAddr(i), tagTomb)
	t.occupied--
	t.tombs++
	return nil
}

// Lookup is the software reference walk (the hardware hashed-walker's
// correctness oracle).
func (t *HashedTable) Lookup(va arch.VAddr) (arch.PAddr, arch.PageSize, bool) {
	if !arch.Canonical(va) {
		return 0, 0, false
	}
	i, slot, ok := t.find(va)
	if !ok {
		return 0, 0, false
	}
	frame := t.phys.Read64(t.ClusterAddr(i) + slot)
	if frame == 0 {
		return 0, 0, false
	}
	return arch.PAddr(frame&uint64(frameMask)) + arch.PAddr(uint64(va)&arch.Page4K.Mask()),
		arch.Page4K, true
}

// grow doubles the table and rehashes every live cluster. VA->PA data
// mappings are unchanged, so cached TLB entries stay valid; only the
// table's own physical layout moves (as in an OS hashed-table resize).
func (t *HashedTable) grow() error {
	oldClusters := t.clusters
	oldSegs := t.segments
	t.segments = nil
	if err := t.addSegments(oldClusters * 2); err != nil {
		t.segments = oldSegs
		return err
	}
	t.clusters = oldClusters * 2
	t.occupied, t.tombs, t.live = 0, 0, 0
	readOld := func(i uint64, word uint64) uint64 {
		a := oldSegs[i/clustersPerSegment] + arch.PAddr(i%clustersPerSegment*clusterBytes+word*8)
		return t.phys.Read64(a)
	}
	for i := uint64(0); i < oldClusters; i++ {
		tag := readOld(i, 0)
		if tag < tagBias {
			continue
		}
		group := tag - tagBias
		for s := uint64(0); s < clusterSpan; s++ {
			frame := readOld(i, 1+s)
			if frame == 0 {
				continue
			}
			vpn := group*clusterSpan + s
			if err := t.Map(arch.VAddr(vpn<<arch.PageShift4K),
				arch.PAddr(frame&uint64(frameMask)), arch.Page4K); err != nil {
				return fmt.Errorf("pagetable: rehash: %w", err)
			}
		}
	}
	for _, seg := range oldSegs {
		t.phys.FreePage(seg, arch.Page2M)
	}
	return nil
}

// Root returns the base of the first table segment (informational; the
// hashed walker addresses clusters through the table geometry).
func (t *HashedTable) Root() arch.PAddr { return t.segments[0] }

// TableBytes returns the physical memory the table occupies.
func (t *HashedTable) TableBytes() uint64 {
	return uint64(len(t.segments)) * arch.Page2M.Bytes()
}

// Mappings returns live 4 KB mappings (0 for superpage sizes).
func (t *HashedTable) Mappings(ps arch.PageSize) uint64 {
	if ps == arch.Page4K {
		return t.live
	}
	return 0
}

// Superpages reports that hashed tables cannot hold superpage leaves.
func (t *HashedTable) Superpages() bool { return false }

// Collapse is unsupported (no radix level to collapse).
func (t *HashedTable) Collapse(va arch.VAddr) error {
	return fmt.Errorf("pagetable: hashed table cannot collapse %#x", uint64(va))
}

// Canonical reports 48-bit canonicality (hashed tables pair with the
// 4-level address-width configuration).
func (t *HashedTable) Canonical(va arch.VAddr) bool { return arch.Canonical(va) }
