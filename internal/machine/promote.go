package machine

import (
	"atscale/internal/arch"
	"atscale/internal/perf"
)

// This file implements the WCPI-guided hugepage promotion policy the
// paper's discussion proposes ("using WCPI as a heuristic to guide huge
// page allocation ... in the operating system would be worthy of further
// investigation"): a khugepaged analogue that watches walk cycles per
// instruction online and collapses the walk-hottest 2 MB blocks to
// superpages when translation pressure is high.

// PromotionConfig parameterizes the policy.
type PromotionConfig struct {
	// Epoch is the decision interval in retired accesses.
	Epoch uint64
	// WCPIThreshold gates promotion: blocks are only collapsed while the
	// epoch's walk cycles per instruction exceed it.
	WCPIThreshold float64
	// MaxPerEpoch bounds promotions per decision (copy-bandwidth cap).
	MaxPerEpoch int
	// CostCycles is the visible stall charged per promotion (page copy
	// plus TLB shootdown; most of khugepaged's work is off-core, so this
	// is far below the full copy time).
	CostCycles uint64
}

// DefaultPromotionConfig returns a policy tuned like a conservative
// khugepaged: check every 32K accesses, act above 0.02 WCPI, at most four
// collapses per epoch.
func DefaultPromotionConfig() PromotionConfig {
	return PromotionConfig{
		Epoch:         32 * 1024,
		WCPIThreshold: 0.02,
		MaxPerEpoch:   4,
		CostCycles:    12_000,
	}
}

// promoState is the live policy state.
type promoState struct {
	cfg      PromotionConfig
	last     perf.Counters
	sinceAcc uint64
	// smp is the policy's private PEBS-style sampler: demand walks at
	// period 1, drained every epoch for hot-block attribution.
	smp *perf.Sampler
}

// promoSampleCapacity sizes the policy sampler's ring. An epoch issues
// at most Epoch demand walks (one per retired access), so the default
// 32 Ki-access epoch cannot overflow; far larger epochs degrade to a
// sampled (rather than exact) heat signal, which the policy tolerates.
const promoSampleCapacity = 1 << 17

// block2MShift is log2 of the 2 MB promotion granularity, the block size
// HotBlocks aggregates walk samples at.
const block2MShift = 21

// enablePromotion is Machine.EnablePromotion's back-end half.
func (b *backEnd) enablePromotion(cfg PromotionConfig) {
	if cfg.Epoch == 0 {
		cfg = DefaultPromotionConfig()
	}
	// The hotness signal is the sampling subsystem: a private sampler
	// armed on demand walks (outcome-retired filter excludes wrong-path
	// and aborted speculation) at period 1, i.e. every demand walk.
	smp := perf.NewSampler(promoSampleCapacity)
	smp.SetFilter(func(s perf.Sample) bool { return s.Outcome == perf.OutcomeRetired })
	if err := smp.Arm(perf.DTLBLoadMissWalk, 1); err != nil {
		panic(err)
	}
	if err := smp.Arm(perf.DTLBStoreMissWalk, 1); err != nil {
		panic(err)
	}
	b.core.AttachSampler(smp)
	b.promo = &promoState{cfg: cfg, last: b.core.Counters(), smp: smp}
}

// promoTick runs once per epoch: measure the epoch's WCPI and, if
// translation pressure is high, collapse the walk-hottest blocks.
func (b *backEnd) promoTick() {
	p := b.promo
	cur := b.core.Counters()
	delta := perf.Delta(p.last, cur)
	p.last = cur

	inst := delta.Get(perf.InstRetired)
	if inst == 0 {
		return
	}
	walkCycles := delta.Get(perf.DTLBLoadWalkDuration) + delta.Get(perf.DTLBStoreWalkDuration)
	wcpi := float64(walkCycles) / float64(inst)

	// Drain the sampler every epoch (stale heat should not trigger
	// promotions many epochs later) and attribute walks to 2 MB blocks.
	hotBlocks := perf.HotBlocks(p.smp.Drain(), block2MShift, p.cfg.MaxPerEpoch)
	if wcpi < p.cfg.WCPIThreshold {
		return
	}
	for _, hb := range hotBlocks {
		block := arch.VAddr(hb)
		if !b.as.CanPromote(block) {
			continue
		}
		if err := b.as.Promote(block); err != nil {
			continue // e.g. out of 2MB frames: skip, try again later
		}
		// TLB shootdown for the collapsed range plus the stale PDE
		// pointer in the paging-structure caches.
		for off := uint64(0); off < arch.Page2M.Bytes(); off += arch.Page4K.Bytes() {
			b.core.InvalidateTranslation(block+arch.VAddr(off), arch.Page4K)
		}
		b.core.InvalidatePDE(block)
		b.core.Stall(p.cfg.CostCycles)
		b.core.CountSoftware(perf.THPPromotions, 1)
	}
}

// maybePromote is called from the hot access path; it is two compares in
// the common case.
func (b *backEnd) maybePromote() {
	p := b.promo
	if p == nil {
		return
	}
	p.sinceAcc++
	if p.sinceAcc >= p.cfg.Epoch {
		p.sinceAcc = 0
		b.promoTick()
	}
}
