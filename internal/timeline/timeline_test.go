package timeline

import (
	"math"
	"strings"
	"testing"
)

func valid(phases ...Phase) Timeline { return Timeline{Phases: phases} }

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		tl   Timeline
		want string // substring of the error
	}{
		{"bad name charset", valid(Phase{Name: "Bad_Name", StartMS: 0, EndMS: 10}), "must match"},
		{"empty name", valid(Phase{Name: "", StartMS: 0, EndMS: 10}), "must match"},
		{"duplicate name", valid(
			Phase{Name: "a", StartMS: 0, EndMS: 10},
			Phase{Name: "a", StartMS: 20, EndMS: 30}), "duplicate"},
		{"negative start", valid(Phase{Name: "a", StartMS: -1, EndMS: 10}), ">= 0"},
		{"zero duration", valid(Phase{Name: "a", StartMS: 10, EndMS: 10}), "non-positive duration"},
		{"inverted bounds", valid(Phase{Name: "a", StartMS: 10, EndMS: 5}), "non-positive duration"},
		{"overlap", valid(
			Phase{Name: "a", StartMS: 0, EndMS: 20},
			Phase{Name: "b", StartMS: 10, EndMS: 30}), "overlaps"},
		{"out of order", valid(
			Phase{Name: "a", StartMS: 50, EndMS: 60},
			Phase{Name: "b", StartMS: 10, EndMS: 30}), "overlaps"},
		{"negative backend factor", valid(Phase{Name: "a", StartMS: 0, EndMS: 10,
			Effects: Effects{BackendLatencyFactor: -1}}), "backend latency factor"},
		{"negative cache factor", valid(Phase{Name: "a", StartMS: 0, EndMS: 10,
			Effects: Effects{CacheCapacityFactor: -0.5}}), "cache capacity factor"},
		{"loss prob over 1", valid(Phase{Name: "a", StartMS: 0, EndMS: 10,
			Effects: Effects{ExtraLossProb: 1.5}}), "extra loss prob"},
		{"negative throughput factor", valid(Phase{Name: "a", StartMS: 0, EndMS: 10,
			Effects: Effects{ThroughputFactor: -2}}), "throughput factor"},
		{"negative arrival factor", valid(Phase{Name: "a", StartMS: 0, EndMS: 10,
			Effects: Effects{ArrivalRateFactor: -1}}), "arrival rate factor"},
		{"negative extra rtt", valid(Phase{Name: "a", StartMS: 0, EndMS: 10,
			Effects: Effects{ExtraRTTms: -100}}), "extra RTT"},
		{"negative failover rtt", valid(Phase{Name: "a", StartMS: 0, EndMS: 10,
			Effects: Effects{FailoverExtraRTTms: -1}}), "failover extra RTT"},
		{"failover into outage", valid(Phase{Name: "a", StartMS: 0, EndMS: 10,
			Effects: Effects{PoPDown: []int{2}, FailoverPoP: 2}}), "also takes down"},
		{"negative pop", valid(Phase{Name: "a", StartMS: 0, EndMS: 10,
			Effects: Effects{PoPDown: []int{-1}}}), "must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tl.Validate()
			if err == nil {
				t.Fatalf("Validate() accepted %+v", tc.tl)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.want)
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	tl := valid(
		Phase{Name: "brownout", StartMS: 0, EndMS: 60000,
			Effects: Effects{BackendLatencyFactor: 5}},
		Phase{Name: "outage", StartMS: 60000, EndMS: 120000,
			Effects: Effects{PoPDown: []int{2, 3}, FailoverPoP: 0, FailoverExtraRTTms: 40}},
		Phase{Name: "crowd", StartMS: 300000, EndMS: 360000,
			Effects: Effects{ArrivalRateFactor: 4}},
	)
	if err := tl.Validate(); err != nil {
		t.Fatalf("Validate() = %v for a legal timeline", err)
	}
	if err := tl.ValidatePoPs(6); err != nil {
		t.Fatalf("ValidatePoPs(6) = %v", err)
	}
	if err := tl.ValidatePoPs(3); err == nil {
		t.Fatal("ValidatePoPs(3) accepted PoP 3 outage in a 3-PoP fleet")
	}
	if err := valid(Phase{Name: "o", StartMS: 0, EndMS: 10,
		Effects: Effects{PoPDown: []int{1}, FailoverPoP: 9}}).ValidatePoPs(6); err == nil {
		t.Fatal("ValidatePoPs accepted out-of-range failover PoP")
	}
}

// TestPhaseAtBoundaries pins the half-open [start, end) semantics at
// every boundary of a two-phase timeline with a gap.
func TestPhaseAtBoundaries(t *testing.T) {
	tl := valid(
		Phase{Name: "first", StartMS: 100, EndMS: 200},
		Phase{Name: "second", StartMS: 300, EndMS: 400},
	)
	cases := []struct {
		at   float64
		want string // "" = no phase
	}{
		{0, ""},
		{99.999, ""},
		{100, "first"}, // start is inclusive
		{199.999, "first"},
		{200, ""}, // end is exclusive
		{250, ""}, // gap
		{300, "second"},
		{399.999, "second"},
		{400, ""},
		{1e12, ""},
	}
	for _, tc := range cases {
		ph := tl.PhaseAt(tc.at)
		got := ""
		if ph != nil {
			got = ph.Name
		}
		if got != tc.want {
			t.Errorf("PhaseAt(%g) = %q, want %q", tc.at, got, tc.want)
		}
	}
	if Empty := (Timeline{}).PhaseAt(5); Empty != nil {
		t.Errorf("empty timeline PhaseAt = %v, want nil", Empty)
	}
}

func TestWindowsSegmentation(t *testing.T) {
	tl := valid(
		Phase{Name: "outage", StartMS: 100, EndMS: 200},
		Phase{Name: "crowd", StartMS: 300, EndMS: 400},
	)
	ws := tl.Windows(1000)
	wantNames := []string{"w00-pre", "w01-outage", "w02-gap", "w03-crowd", "w04-post"}
	if len(ws) != len(wantNames) {
		t.Fatalf("Windows = %v, want %d segments", ws, len(wantNames))
	}
	for i, w := range ws {
		if w.Name != wantNames[i] {
			t.Errorf("window %d = %q, want %q", i, w.Name, wantNames[i])
		}
	}
	// Contiguous cover of [0, 1000).
	if ws[0].StartMS != 0 || ws[len(ws)-1].EndMS != 1000 {
		t.Errorf("windows do not span the campaign: %v", ws)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].StartMS != ws[i-1].EndMS {
			t.Errorf("gap between window %d and %d: %v", i-1, i, ws)
		}
	}

	// A phase starting at 0 produces no empty "pre" window; a phase
	// running past the campaign end is clamped and "post" is dropped.
	ws = valid(Phase{Name: "all", StartMS: 0, EndMS: 2000}).Windows(1000)
	if len(ws) != 1 || ws[0].Name != "w00-all" || ws[0].EndMS != 1000 {
		t.Errorf("clamped single-phase windows = %v", ws)
	}
	// A phase entirely past the arrival window contributes nothing.
	ws = valid(Phase{Name: "late", StartMS: 5000, EndMS: 6000}).Windows(1000)
	if len(ws) != 1 || ws[0].Name != "w00-post" {
		t.Errorf("out-of-window phase windows = %v", ws)
	}
	if ws := (Timeline{}).Windows(1000); ws != nil {
		t.Errorf("empty timeline windows = %v, want nil", ws)
	}
}

func TestWindowAt(t *testing.T) {
	ws := valid(Phase{Name: "p", StartMS: 100, EndMS: 200}).Windows(1000)
	for _, tc := range []struct {
		t    float64
		want int
	}{{0, 0}, {99.9, 0}, {100, 1}, {199.9, 1}, {200, 2}, {999.9, 2}, {1000, 2}, {1001, -1}, {-1, -1}} {
		if got := WindowAt(ws, tc.t); got != tc.want {
			t.Errorf("WindowAt(%g) = %d, want %d", tc.t, got, tc.want)
		}
	}
}

// TestWarpIdentityWithoutRateFactors: phases that inject faults but do
// not touch the arrival rate must leave every arrival exactly where it
// was — the byte-identity of non-flash-crowd timelines depends on it.
func TestWarpIdentityWithoutRateFactors(t *testing.T) {
	tl := valid(
		Phase{Name: "outage", StartMS: 100, EndMS: 200,
			Effects: Effects{PoPDown: []int{1}, BackendLatencyFactor: 3}},
	)
	for _, u := range []float64{0, 50, 100, 150, 200, 555.25, 999.999} {
		if got := tl.NewArrivalWarp(1000).At(u); got != u {
			t.Errorf("warp(%g) = %g, want identity", u, got)
		}
	}
	if got := (Timeline{}).NewArrivalWarp(1000).At(123.5); got != 123.5 {
		t.Errorf("empty timeline warp = %g, want identity", got)
	}
}

// TestWarpConcentratesArrivals: a factor-m phase must receive m× the
// nominal mass, phase boundaries must map exactly onto mass boundaries,
// and the map must stay monotonic.
func TestWarpConcentratesArrivals(t *testing.T) {
	const w = 1000.0
	warp := valid(Phase{Name: "crowd", StartMS: 400, EndMS: 600,
		Effects: Effects{ArrivalRateFactor: 4}}).NewArrivalWarp(w)
	// Rate mass: 400*1 + 200*4 + 400*1 = 1600. The phase holds 800/1600 =
	// 50% of arrivals in 20% of the window.
	in, n := 0, 100000
	prev := -1.0
	for i := 0; i < n; i++ {
		u := w * float64(i) / float64(n)
		at := warp.At(u)
		if at < prev {
			t.Fatalf("warp not monotonic at u=%g: %g < %g", u, at, prev)
		}
		prev = at
		if at >= 400 && at < 600 {
			in++
		}
	}
	if share := float64(in) / float64(n); math.Abs(share-0.5) > 0.001 {
		t.Errorf("phase arrival share = %.4f, want 0.5", share)
	}
	// Exact boundary mapping: nominal mass fraction 400/1600 of the
	// window start lands exactly on the phase start.
	if got := warp.At(w * 400 / 1600); math.Abs(got-400) > 1e-9 {
		t.Errorf("mass boundary maps to %g, want 400", got)
	}
	if got := warp.At(w * 1200 / 1600); math.Abs(got-600) > 1e-9 {
		t.Errorf("mass boundary maps to %g, want 600", got)
	}
	// Endpoints stay inside the window.
	if got := warp.At(0); got != 0 {
		t.Errorf("warp(0) = %g", got)
	}
	if got := warp.At(999.999999); got >= w {
		t.Errorf("warp(~end) = %g, escaped the window", got)
	}
}

// TestWarpThinsArrivals: factors below 1 must push arrivals out of the
// phase (the inverse of a flash crowd: a partial drain).
func TestWarpThinsArrivals(t *testing.T) {
	const w = 1000.0
	warp := valid(Phase{Name: "drain", StartMS: 0, EndMS: 500,
		Effects: Effects{ArrivalRateFactor: 0.5}}).NewArrivalWarp(w)
	// Mass: 500*0.5 + 500*1 = 750; the phase holds 250/750 = 1/3.
	in, n := 0, 30000
	for i := 0; i < n; i++ {
		if at := warp.At(w * float64(i) / float64(n)); at < 500 {
			in++
		}
	}
	if share := float64(in) / float64(n); math.Abs(share-1.0/3) > 0.005 {
		t.Errorf("drained phase share = %.4f, want 1/3", share)
	}
}

func TestEffectsHelpers(t *testing.T) {
	e := Effects{}
	if e.ArrivalRate() != 1 || e.BackendFactor() != 1 {
		t.Errorf("zero effects factors = %g/%g, want 1/1", e.ArrivalRate(), e.BackendFactor())
	}
	e = Effects{ArrivalRateFactor: 3, BackendLatencyFactor: 0.5, PoPDown: []int{1, 4}}
	if e.ArrivalRate() != 3 || e.BackendFactor() != 0.5 {
		t.Errorf("set factors = %g/%g", e.ArrivalRate(), e.BackendFactor())
	}
	if !e.PoPIsDown(4) || e.PoPIsDown(0) {
		t.Errorf("PoPIsDown wrong: %v", e.PoPDown)
	}
}
