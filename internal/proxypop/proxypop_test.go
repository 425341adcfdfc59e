package proxypop

import (
	"math"
	"testing"
	"testing/quick"
)

// TestConfigDefaults: zero fields pick up the calibrated defaults, a
// disabled config passes through WithDefaults untouched (the byte-
// identity invariant depends on it), and explicit values survive.
func TestConfigDefaults(t *testing.T) {
	var zero Config
	if zero.Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if got := zero.WithDefaults(); got != zero {
		t.Fatalf("WithDefaults mutated the disabled config: %+v", got)
	}
	c := Config{Share: 0.23}.WithDefaults()
	if c.Cohorts != DefaultCohorts {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	custom := Config{Share: 0.5, Cohorts: 3}.WithDefaults()
	if custom.Cohorts != 3 {
		t.Fatalf("explicit value overwritten: %+v", custom)
	}
	if err := custom.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestValidateRejects pins the rejection cases: share outside [0, 1]
// (checked even when the block is disabled) and out-of-range knobs.
func TestValidateRejects(t *testing.T) {
	for name, c := range map[string]Config{
		"share>1":        {Share: 1.5},
		"share<0":        {Share: -0.1},
		"cohorts>max":    {Share: 0.2, Cohorts: MaxCohorts + 1},
		"cohorts<0":      {Share: 0.2, Cohorts: -1},
		"egress<0":       {Share: 0.2, EgressKbps: -1},
		"disabled-share": {Share: -2},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, c)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("disabled zero config rejected: %v", err)
	}
}

// TestAssignShareClampedProperty: for any share (including garbage
// beyond 1) and any u in [0, 1), the assignment is total and in range —
// the effective share is clamped to [0, 1], the cohort is in
// [1, Cohorts], and a disabled share never assigns.
func TestAssignShareClampedProperty(t *testing.T) {
	prop := func(share, u float64, cohorts uint8) bool {
		u = math.Abs(math.Mod(u, 1))
		c := Config{Share: share, Cohorts: int(cohorts%64) + 1}.WithDefaults()
		a := c.Assign(u)
		if share <= 0 && a.Proxied {
			return false
		}
		if !a.Proxied {
			return a.Cohort == 0
		}
		// Proxied only when u fell inside the clamped share.
		eff := math.Min(share, 1)
		return u < eff && a.Cohort >= 1 && a.Cohort <= c.Cohorts
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestAssignRealizedShare: over a uniform grid of u, the realized
// proxied fraction matches the configured share to grid resolution.
func TestAssignRealizedShare(t *testing.T) {
	for _, share := range []float64{0.1, 0.23, 0.5, 1} {
		c := Config{Share: share}.WithDefaults()
		const n = 10000
		proxied := 0
		for i := 0; i < n; i++ {
			if c.Assign((float64(i) + 0.5) / n).Proxied {
				proxied++
			}
		}
		got := float64(proxied) / n
		if math.Abs(got-share) > 1e-3 {
			t.Errorf("share %g: realized %g", share, got)
		}
	}
}

// TestBuildCohortsRTTNeverNegativeProperty: for any seed, every
// cohort's trombone penalty lands inside the fixed [25, 200] ms window
// — never negative — and the cohort table is a pure function of
// (seed, config).
func TestBuildCohortsRTTNeverNegativeProperty(t *testing.T) {
	const lo, hi = 25, 200
	prop := func(seed uint64, cohorts uint8) bool {
		c := Config{Share: 0.2, Cohorts: int(cohorts%32) + 1}.WithDefaults()
		a := c.BuildCohorts(seed, 0)
		b := c.BuildCohorts(seed, 0)
		if len(a) != c.Cohorts {
			return false
		}
		for i := range a {
			tr := a[i].Trombone
			if tr.ExtraRTTMS < lo || tr.ExtraRTTMS > hi {
				return false
			}
			if a[i] != b[i] {
				return false // not deterministic
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCohortIdentityAndContention: cohort IDs and egress names are
// 1-based and stable; the mean-field contention divides the uplink by
// expected concurrency with the floor applied; zero uplink stays zero.
func TestCohortIdentityAndContention(t *testing.T) {
	c := Config{Share: 0.23, Cohorts: 12, EgressKbps: 25000}.WithDefaults()
	cohorts := c.BuildCohorts(61, c.PerSessionEgressKbps(c.ExpectedConcurrent(4000, 10, 6, 30*60e3)))
	if len(cohorts) != 12 {
		t.Fatalf("cohorts = %d", len(cohorts))
	}
	for i, co := range cohorts {
		if co.ID != i+1 {
			t.Errorf("cohort %d has ID %d", i, co.ID)
		}
		if want := "egress-" + []string{"0001", "0002", "0003", "0004", "0005", "0006",
			"0007", "0008", "0009", "0010", "0011", "0012"}[i]; co.EgressIP != want {
			t.Errorf("cohort %d egress %q, want %q", i+1, co.EgressIP, want)
		}
		if co.Trombone.EgressKbps < MinEgressKbps {
			t.Errorf("cohort %d egress bandwidth %g below floor", co.ID, co.Trombone.EgressKbps)
		}
	}
	if got := c.PerSessionEgressKbps(0); got != c.EgressKbps {
		t.Errorf("PerSessionEgressKbps clamps concurrency to 1, got %g", got)
	}
	if got := c.PerSessionEgressKbps(1e9); got != MinEgressKbps {
		t.Errorf("contended egress share %g, want the %d floor", got, MinEgressKbps)
	}
	if got := (Config{Share: 0.2}).WithDefaults().PerSessionEgressKbps(5); got != 0 {
		t.Errorf("uncontended config yields %g, want 0", got)
	}
	if conc := c.ExpectedConcurrent(4000, 10, 6, 30*60e3); conc < 1 {
		t.Errorf("ExpectedConcurrent = %g, want >= 1", conc)
	}
}

// TestUndefaultedEdgeCases drives the raw (un-defaulted) config paths:
// a missing cohort count acts as one cohort in Assign, BuildCohorts,
// and ExpectedConcurrent; a degenerate window or watch length yields
// the occupancy floor; an over-unity share clamps.
func TestUndefaultedEdgeCases(t *testing.T) {
	raw := Config{Share: 2} // no WithDefaults: Cohorts == 0
	if a := raw.Assign(0.99); !a.Proxied || a.Cohort != 1 {
		t.Errorf("cohortless assign = %+v, want cohort 1", a)
	}
	if got := len(raw.BuildCohorts(9, 0)); got != 1 {
		t.Errorf("cohortless BuildCohorts built %d cohorts, want 1", got)
	}
	if got := (Config{}).BuildCohorts(9, 0); got != nil {
		t.Errorf("disabled BuildCohorts built %d cohorts", len(got))
	}
	if got := raw.ExpectedConcurrent(1000, 10, 6, 0); got != 1 {
		t.Errorf("zero-window occupancy = %g, want the floor", got)
	}
	if got := raw.ExpectedConcurrent(2, 1, 1, 1e9); got != 1 {
		t.Errorf("sparse-cohort occupancy = %g, want the floor", got)
	}
}
