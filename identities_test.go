package atscale_test

import (
	"testing"

	"atscale"
	"atscale/internal/core"
)

// TestWrongPathSTLBHitsWithinIdentity runs bc-urand 16 at a 1M-access
// budget with every campaign identity armed. This unit mispredicts often
// enough that its wrong-path lookups hit the STLB many times; the
// stlb_hits_bound_misses identity must allow for them and every identity
// must hold.
func TestWrongPathSTLBHitsWithinIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 1M-access unit")
	}
	cfg := atscale.DefaultRunConfig()
	cfg.Budget = 1_000_000
	cfg.Refute = core.NewCampaignChecker()
	spec, err := atscale.WorkloadByName("bc-urand")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atscale.Run(&cfg, spec, 16, atscale.Page4K); err != nil {
		t.Fatal(err)
	}
	rep := cfg.Refute.Report()
	if rep.Units != 1 {
		t.Fatalf("checked %d units, want 1", rep.Units)
	}
	for _, id := range rep.Identities {
		if !id.Holds() {
			t.Errorf("%s violated: %+v", id.Name, id.Worst)
		}
		if id.Name == "stlb_hits_bound_misses" && id.Checked != 1 {
			t.Errorf("stlb_hits_bound_misses checked %d units, want 1", id.Checked)
		}
	}
}
