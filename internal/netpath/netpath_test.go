package netpath

import (
	"testing"

	"vidperf/internal/stats"
)

func TestOrgTypeString(t *testing.T) {
	if Residential.String() != "residential" ||
		Enterprise.String() != "enterprise" ||
		SmallBusiness.String() != "small-business" {
		t.Error("OrgType strings wrong")
	}
	if OrgType(9).String() != "unknown" {
		t.Error("unknown OrgType string wrong")
	}
}

func TestResidentialProfileRanges(t *testing.T) {
	r := stats.NewRand(1)
	for i := 0; i < 500; i++ {
		p := ResidentialProfile(10, r)
		if p.Org != Residential {
			t.Fatal("wrong org")
		}
		if p.BaseRTTms < 10 || p.BaseRTTms > 30 {
			t.Fatalf("base RTT %v outside propagation+last-mile range", p.BaseRTTms)
		}
		if p.AccessKbps < 1500 {
			t.Fatalf("access %v below DSL floor", p.AccessKbps)
		}
		if p.JitterMS > 3 {
			t.Fatalf("residential jitter %v too high", p.JitterMS)
		}
	}
}

func TestEnterpriseWorseThanResidential(t *testing.T) {
	r := stats.NewRand(2)
	var resRTT, entRTT, resJit, entJit stats.Summary
	proxies := 0
	for i := 0; i < 2000; i++ {
		res := ResidentialProfile(10, r)
		ent := EnterpriseProfile(10, r)
		resRTT.Add(res.BaseRTTms)
		entRTT.Add(ent.BaseRTTms)
		resJit.Add(res.JitterMS)
		entJit.Add(ent.JitterMS)
		if ent.Proxy {
			proxies++
		}
	}
	if entRTT.Mean() <= resRTT.Mean() {
		t.Errorf("enterprise base RTT %v not above residential %v", entRTT.Mean(), resRTT.Mean())
	}
	if entJit.Mean() <= resJit.Mean() {
		t.Errorf("enterprise jitter %v not above residential %v", entJit.Mean(), resJit.Mean())
	}
	// ~55% of enterprise prefixes sit behind proxies.
	frac := float64(proxies) / 2000
	if frac < 0.45 || frac > 0.65 {
		t.Errorf("enterprise proxy fraction = %v", frac)
	}
}

func TestSessionParamsDerivation(t *testing.T) {
	r := stats.NewRand(3)
	p := ResidentialProfile(20, r)
	for i := 0; i < 200; i++ {
		sp := p.SessionParams(r)
		// Lognormal(0, 0.35) diurnal multiplier: within ~3.5σ of 1.
		if sp.BaseRTTms < p.BaseRTTms*0.25 || sp.BaseRTTms > p.BaseRTTms*3.5 {
			t.Fatalf("session RTT %v strays from profile %v", sp.BaseRTTms, p.BaseRTTms)
		}
		if sp.BottleneckKbps < 300 {
			t.Fatalf("bottleneck %v below floor", sp.BottleneckKbps)
		}
		if sp.BufferBytes < 32*1460 {
			t.Fatalf("buffer %v below floor", sp.BufferBytes)
		}
	}
}

func TestCongestionMarkov(t *testing.T) {
	r := stats.NewRand(4)
	prof := EnterpriseProfile(10, r)
	c := prof.NewCongestion(r)
	onChunks, total := 0, 20000
	for i := 0; i < total; i++ {
		d := c.Step(r)
		if c.on {
			onChunks++
			if d <= 0 {
				t.Fatal("on episode with zero delay")
			}
		} else if d != 0 {
			t.Fatal("off state returned delay")
		}
	}
	// Stationary on-fraction ≈ pOn/(pOn+pOff) = 0.22/0.52 ≈ 0.42.
	frac := float64(onChunks) / float64(total)
	if frac < 0.25 || frac > 0.60 {
		t.Errorf("on fraction = %v, want ~0.42", frac)
	}
}

func TestResidentialCongestionRare(t *testing.T) {
	r := stats.NewRand(5)
	prof := ResidentialProfile(10, r)
	c := prof.NewCongestion(r)
	onChunks := 0
	for i := 0; i < 20000; i++ {
		c.Step(r)
		if c.on {
			onChunks++
		}
	}
	frac := float64(onChunks) / 20000
	if frac > 0.03 {
		t.Errorf("residential on fraction = %v, want <3%%", frac)
	}
}

func TestEnterpriseBusyHourVariation(t *testing.T) {
	// Sessions from the same enterprise prefix must differ widely in
	// congestion level (busy-hour vs off-hours), which is what drives
	// Table 4's per-session CV(SRTT) split.
	r := stats.NewRand(6)
	prof := EnterpriseProfile(10, r)
	var sessionMeans []float64
	for s := 0; s < 300; s++ {
		c := prof.NewCongestion(r)
		var sum float64
		for i := 0; i < 30; i++ {
			sum += c.Step(r)
		}
		sessionMeans = append(sessionMeans, sum/30)
	}
	quiet, busy := 0, 0
	for _, m := range sessionMeans {
		if m < 60 {
			quiet++
		}
		if m > 300 {
			busy++
		}
	}
	if quiet < 30 || busy < 30 {
		t.Errorf("busy-hour split missing: quiet=%d busy=%d of 300", quiet, busy)
	}
}
