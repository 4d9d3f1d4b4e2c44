package arch

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPageSizeBytes(t *testing.T) {
	cases := []struct {
		ps   PageSize
		want uint64
	}{
		{Page4K, 4 * KB},
		{Page2M, 2 * MB},
		{Page1G, 1 * GB},
	}
	for _, c := range cases {
		if got := c.ps.Bytes(); got != c.want {
			t.Errorf("%v.Bytes() = %d, want %d", c.ps, got, c.want)
		}
		if got := c.ps.Mask(); got != c.want-1 {
			t.Errorf("%v.Mask() = %#x, want %#x", c.ps, got, c.want-1)
		}
	}
}

func TestPageSizeWalkLength(t *testing.T) {
	if got := Page4K.WalkLength(); got != 4 {
		t.Errorf("4K walk length = %d, want 4", got)
	}
	if got := Page2M.WalkLength(); got != 3 {
		t.Errorf("2M walk length = %d, want 3", got)
	}
	if got := Page1G.WalkLength(); got != 2 {
		t.Errorf("1G walk length = %d, want 2", got)
	}
}

func TestPageSizeLeafLevel(t *testing.T) {
	if Page4K.LeafLevel() != LevelPT || Page2M.LeafLevel() != LevelPD || Page1G.LeafLevel() != LevelPDPT {
		t.Errorf("leaf levels wrong: %v %v %v", Page4K.LeafLevel(), Page2M.LeafLevel(), Page1G.LeafLevel())
	}
}

func TestPageSizeStringRoundTrip(t *testing.T) {
	for ps := Page4K; ps < NumPageSizes; ps++ {
		got, err := ParsePageSize(ps.String())
		if err != nil || got != ps {
			t.Errorf("ParsePageSize(%q) = %v, %v", ps.String(), got, err)
		}
	}
	if _, err := ParsePageSize("8KB"); err == nil {
		t.Error("ParsePageSize(8KB) should fail")
	}
}

func TestLevelIndex(t *testing.T) {
	// A VA with known per-level indices:
	// PML4=1, PDPT=2, PD=3, PT=4, offset=5.
	va := VAddr(uint64(1)<<39 | uint64(2)<<30 | uint64(3)<<21 | uint64(4)<<12 | 5)
	if got := LevelPML4.Index(va); got != 1 {
		t.Errorf("PML4 index = %d, want 1", got)
	}
	if got := LevelPDPT.Index(va); got != 2 {
		t.Errorf("PDPT index = %d, want 2", got)
	}
	if got := LevelPD.Index(va); got != 3 {
		t.Errorf("PD index = %d, want 3", got)
	}
	if got := LevelPT.Index(va); got != 4 {
		t.Errorf("PT index = %d, want 4", got)
	}
}

func TestLevelPrefixNests(t *testing.T) {
	// Prefixes must nest: the PML4 prefix is a suffix-truncation of the
	// PDPT prefix, and so on.
	check := func(raw uint64) bool {
		va := VAddr(raw & ((1 << VABits) - 1))
		p1 := LevelPT.Prefix(va)
		p2 := LevelPD.Prefix(va)
		p3 := LevelPDPT.Prefix(va)
		p4 := LevelPML4.Prefix(va)
		return p1>>RadixBits == p2 && p2>>RadixBits == p3 && p3>>RadixBits == p4
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexReconstruction(t *testing.T) {
	// The four indices plus offset must reconstruct the VA.
	check := func(raw uint64) bool {
		va := VAddr(raw & ((1 << VABits) - 1))
		rebuilt := LevelPML4.Index(va)<<39 | LevelPDPT.Index(va)<<30 |
			LevelPD.Index(va)<<21 | LevelPT.Index(va)<<12 | uint64(va)&0xFFF
		return VAddr(rebuilt) == va
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestAlignHelpers(t *testing.T) {
	if AlignUp(0, 4096) != 0 || AlignUp(1, 4096) != 4096 || AlignUp(4096, 4096) != 4096 {
		t.Error("AlignUp wrong")
	}
	if AlignDown(4095, 4096) != 0 || AlignDown(4096, 4096) != 4096 {
		t.Error("AlignDown wrong")
	}
	if !IsAligned(8192, 4096) || IsAligned(4097, 4096) {
		t.Error("IsAligned wrong")
	}
}

func TestAlignProperties(t *testing.T) {
	check := func(n uint32, shift uint8) bool {
		align := uint64(1) << (shift % 31)
		u := AlignUp(uint64(n), align)
		d := AlignDown(uint64(n), align)
		return u >= uint64(n) && d <= uint64(n) && IsAligned(u, align) &&
			IsAligned(d, align) && u-d < 2*align
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPageBase(t *testing.T) {
	va := VAddr(0x12345678)
	if PageBase(va, Page4K) != 0x12345000 {
		t.Errorf("PageBase 4K = %#x", uint64(PageBase(va, Page4K)))
	}
	if PageBase(va, Page2M) != 0x12200000 {
		t.Errorf("PageBase 2M = %#x", uint64(PageBase(va, Page2M)))
	}
	if PageBase(va, Page1G) != 0 {
		t.Errorf("PageBase 1G = %#x", uint64(PageBase(va, Page1G)))
	}
}

func TestCanonical(t *testing.T) {
	if !Canonical(VAddr(1<<47)) || Canonical(VAddr(1<<48)) {
		t.Error("Canonical boundary wrong")
	}
}

func TestDefaultSystemValidates(t *testing.T) {
	cfg := DefaultSystem()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultSystem invalid: %v", err)
	}
}

// TestDefaultSystemValidatesAtRunMemory: core.Run raises physical
// memory to 256 GiB, which Table III's caches must still tag in 32 bits.
func TestDefaultSystemValidatesAtRunMemory(t *testing.T) {
	cfg := DefaultSystem()
	cfg.PhysMemBytes = 256 * GB
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultSystem at 256 GiB invalid: %v", err)
	}
}

// TestValidateBoundsCacheTags: the largest physical memory whose last
// line keeps a set-relative tag below CacheTagLimit validates, for a
// fully associative (1-set) and a 64-set L1D. TestValidateCatchesBadGeometry
// rejects one byte more.
func TestValidateBoundsCacheTags(t *testing.T) {
	for _, sets := range []uint64{1, 64} {
		cfg := DefaultSystem()
		cfg.L1D = CacheGeometry{SizeBytes: int(sets) * 8 * CacheLineSize, Ways: 8, Latency: 4}
		cfg.PhysMemBytes = CacheTagLimit*sets*CacheLineSize - PhysBase
		if err := cfg.Validate(); err != nil {
			t.Errorf("%d sets at %d bytes: %v", sets, cfg.PhysMemBytes, err)
		}
	}
}

// TestValidateAllocatesNothing: the machine pool validates every unit,
// so a valid config validates without allocating; an L1 TLB's name is
// built only for its error, which still names the page size.
func TestValidateAllocatesNothing(t *testing.T) {
	cfg := DefaultSystem()
	if n := testing.AllocsPerRun(100, func() { cfg.Validate() }); n != 0 {
		t.Errorf("DefaultSystem().Validate() allocates %v times, want 0", n)
	}
	cfg.L1TLB[Page2M].Ways = 3
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "L1TLB[2MB]") {
		t.Errorf("bad 2MB L1 TLB gave %v, want an error naming L1TLB[2MB]", err)
	}
}

func TestValidateCatchesBadGeometry(t *testing.T) {
	cfg := DefaultSystem()
	cfg.STLB.Ways = 3 // 1024/3 not integral
	if err := cfg.Validate(); err == nil {
		t.Error("expected error for non-divisible STLB ways")
	}

	cfg = DefaultSystem()
	cfg.L1D.SizeBytes = 3*KB + 32 // not line-divisible
	if err := cfg.Validate(); err == nil {
		t.Error("expected error for non-line-divisible L1D size")
	}

	cfg = DefaultSystem()
	cfg.DRAMLatency = 0
	if err := cfg.Validate(); err == nil {
		t.Error("expected error for zero DRAM latency")
	}

	cfg = DefaultSystem()
	cfg.CPU.BaseCPI = 0
	if err := cfg.Validate(); err == nil {
		t.Error("expected error for zero BaseCPI")
	}

	// Translation arrays count a set's live ways in 16 bits.
	cfg = DefaultSystem()
	cfg.Virt = DefaultVirt()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default nested config invalid: %v", err)
	}
	for name, mutate := range map[string]func(*SystemConfig){
		"fully associative STLB past 65535 ways": func(c *SystemConfig) { c.STLB = TLBGeometry{Entries: 1 << 16, Ways: 1 << 16} },
		"negative PDE cache":                     func(c *SystemConfig) { c.PSC.PDEntries = -1 },
		"PDE cache past 65535 entries":           func(c *SystemConfig) { c.PSC.PDEntries = 1 << 16 },
		"EPT PDE cache past 65535 entries":       func(c *SystemConfig) { c.Virt = DefaultVirt(); c.Virt.EPTPSC.PDEntries = 1 << 16 },
		"nTLB past 65535 entries":                func(c *SystemConfig) { c.Virt = DefaultVirt(); c.Virt.NTLBEntries = 1 << 16 },
		"1-set L1D past its 32-bit tags": func(c *SystemConfig) {
			c.L1D = CacheGeometry{SizeBytes: 8 * CacheLineSize, Ways: 8, Latency: 4}
			c.PhysMemBytes = CacheTagLimit*CacheLineSize - PhysBase + 1
		},
		"64-set L1D past its 32-bit tags": func(c *SystemConfig) { c.PhysMemBytes = CacheTagLimit*64*CacheLineSize - PhysBase + 1 },
		// The translation schemes' own build checks.
		"mitosis on one NUMA node":           func(c *SystemConfig) { c.Scheme = "mitosis" },
		"negative Victima directory":         func(c *SystemConfig) { c.Scheme = "victima"; c.SchemeParams.VictimaEntries = -1 },
		"DRAM cache below one page":          func(c *SystemConfig) { c.Scheme = "dramcache"; c.SchemeParams.DRAMCacheBytes = 4095 },
		"DRAM cache hit no faster than DRAM": func(c *SystemConfig) { c.Scheme = "dramcache"; c.DRAMLatency = DefaultDRAMCacheHitLatency },
	} {
		cfg = DefaultSystem()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("expected error for %s", name)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    uint64
		want string
	}{
		{512, "512B"},
		{4 * KB, "4.0KB"},
		{256 * MB, "256.0MB"},
		{3 * GB / 2, "1.5GB"},
		{2 * TB, "2.0TB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestInvalidPageSizePanics(t *testing.T) {
	defer func() {
		err, ok := recover().(error)
		if !ok || err.Error() != "arch: invalid page size 3" {
			t.Errorf("Shift(NumPageSizes) panicked with %v", err)
		}
	}()
	NumPageSizes.Shift()
}
