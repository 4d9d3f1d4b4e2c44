package mmucache

import (
	"testing"

	"atscale/internal/arch"
)

// pscLive counts a PSC set's valid entries across its levels.
func pscLive(p *PSC) int {
	n := 0
	for l := arch.LevelPD; l <= p.Top(); l++ {
		n += p.Live(l)
	}
	return n
}

func TestPSCFlushKeepsClockResetRewinds(t *testing.T) {
	p := newPSC()
	va := arch.VAddr(0x7f00_1234_5000)
	p.Insert(arch.LevelPD, va, 0x4000)
	p.Flush()
	if pscLive(p) != 0 {
		t.Fatal("flush left live entries")
	}
	if level, _ := p.LookupDeepest(va, arch.LevelPT, cr3); level != p.Top() {
		t.Error("residual PSC hit after flush")
	}
	// Reset must behave like a fresh build: insert/lookup sequences
	// after Reset match a new PSC exactly (the machine pool depends on
	// renewed instances being byte-identical to fresh ones).
	p.Reset()
	fresh := newPSC()
	p.Insert(arch.LevelPD, va, 0x4000)
	fresh.Insert(arch.LevelPD, va, 0x4000)
	gl, gb := p.LookupDeepest(va, arch.LevelPT, cr3)
	wl, wb := fresh.LookupDeepest(va, arch.LevelPT, cr3)
	if gl != wl || gb != wb {
		t.Errorf("post-Reset PSC diverges from fresh: (%v,%#x) vs (%v,%#x)",
			gl, uint64(gb), wl, uint64(wb))
	}
}
