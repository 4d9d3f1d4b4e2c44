package vm

import (
	"fmt"

	"atscale/internal/arch"
)

// This file implements hugepage promotion: collapsing 512 base-page
// mappings of an aligned 2 MB block into one superpage mapping, khugepaged
// style. The paper's discussion proposes driving exactly this with the
// WCPI metric; the machine layer supplies that policy, and this is the
// mechanism.

// CanPromote reports whether va's 2 MB block is eligible: inside a
// 4 KB-backed region, fully covered by it, and not already promoted.
func (as *AddrSpace) CanPromote(va arch.VAddr) bool {
	if !as.pt.Superpages() {
		return false
	}
	block := arch.PageBase(va, arch.Page2M)
	r, ok := as.Find(block)
	if !ok || r.Backing != arch.Page4K {
		return false
	}
	if block < r.Base || uint64(block)+arch.Page2M.Bytes() > uint64(r.End()) {
		return false
	}
	if as.promoted[block] {
		return false
	}
	return true
}

// Promote collapses the 2 MB block containing va to a superpage mapping:
// the base mappings are destroyed and their frames freed, the page-table
// level is collapsed, and a fresh 2 MB frame is installed. Program data
// is kept by virtual address outside simulated physical memory (see
// package machine), so the remap moves no data: the copy khugepaged makes
// is modelled by the caller's stall, not performed.
//
// The caller owns TLB and paging-structure-cache invalidation for the
// affected range (hardware state is not the OS's to reach into directly).
func (as *AddrSpace) Promote(va arch.VAddr) error {
	block := arch.PageBase(va, arch.Page2M)
	if !as.CanPromote(block) {
		return fmt.Errorf("vm: block %#x not promotable", uint64(block))
	}
	frame, err := as.phys.AllocPage(arch.Page2M)
	if err != nil {
		return fmt.Errorf("vm: promoting %#x: %w", uint64(block), err)
	}
	pages := arch.Page2M.Bytes() / arch.Page4K.Bytes()
	for i := uint64(0); i < pages; i++ {
		pva := block + arch.VAddr(i*arch.Page4K.Bytes())
		// pva is page-aligned, so Lookup returns the old frame base.
		old, ps, ok := as.pt.Lookup(pva)
		if !ok {
			continue // never faulted
		}
		if ps != arch.Page4K {
			return fmt.Errorf("vm: promoting %#x: unexpected %s mapping inside block", uint64(block), ps)
		}
		if err := as.pt.Unmap(pva, arch.Page4K); err != nil {
			return fmt.Errorf("vm: promoting %#x: %w", uint64(block), err)
		}
		as.phys.FreePage(old, arch.Page4K)
		as.mapped -= arch.Page4K.Bytes()
	}
	if err := as.pt.Collapse(block); err != nil {
		return fmt.Errorf("vm: promoting %#x: %w", uint64(block), err)
	}
	if err := as.pt.Map(block, frame, arch.Page2M); err != nil {
		return fmt.Errorf("vm: promoting %#x: %w", uint64(block), err)
	}
	as.mapped += arch.Page2M.Bytes()
	if as.promoted == nil {
		as.promoted = make(map[arch.VAddr]bool)
	}
	as.promoted[block] = true
	as.promotions++
	return nil
}

// Promotions returns how many blocks have been promoted.
func (as *AddrSpace) Promotions() uint64 { return as.promotions }
