package session

import (
	"bytes"
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/core"
	"vidperf/internal/telemetry"
	"vidperf/internal/timeline"
	"vidperf/internal/workload"
)

// fullEffectsTimeline exercises every phase-effect channel at once:
// a flash-crowd surge, a PoP outage with failover, a backend brownout
// with a cache shrink, and a network degradation — three phases, two
// gaps, all within the default 30-minute arrival window.
func fullEffectsTimeline() timeline.Timeline {
	return timeline.Timeline{Phases: []timeline.Phase{
		{Name: "crowd", StartMS: 2 * 60e3, EndMS: 6 * 60e3,
			Effects: timeline.Effects{ArrivalRateFactor: 3}},
		{Name: "outage", StartMS: 10 * 60e3, EndMS: 16 * 60e3,
			Effects: timeline.Effects{
				PoPDown: []int{2}, FailoverPoP: 0, FailoverExtraRTTms: 80,
				BackendLatencyFactor: 4, CacheCapacityFactor: 0.25,
			}},
		{Name: "degrade", StartMS: 20 * 60e3, EndMS: 26 * 60e3,
			Effects: timeline.Effects{
				ThroughputFactor: 0.4, ExtraLossProb: 0.01, ExtraRTTms: 50,
			}},
	}}
}

func timelineScenario(seed uint64) workload.Scenario {
	sc := workload.Scenario{
		Seed:        seed,
		NumSessions: 400,
		NumPrefixes: 150,
		Catalog:     catalog.Config{NumVideos: 800},
	}
	sc.Timeline = fullEffectsTimeline()
	return sc
}

// TestTimelineParallelismByteIdentical extends the tentpole guarantee to
// timeline runs: with every effect channel active — including the
// arrival warp, PoP failover and mid-run cache resizes — the merged
// trace and the telemetry snapshot must serialize to exactly the bytes
// of the sequential run.
func TestTimelineParallelismByteIdentical(t *testing.T) {
	trace := func(par int) []byte {
		sc := timelineScenario(31)
		sc.Parallelism = par
		ds := mustRun(t, sc)
		var buf bytes.Buffer
		if err := core.WriteJSONL(&buf, ds); err != nil {
			t.Fatalf("WriteJSONL(par=%d): %v", par, err)
		}
		return buf.Bytes()
	}
	seq := trace(1)
	for _, par := range []int{2, 8} {
		if got := trace(par); !bytes.Equal(seq, got) {
			t.Fatalf("Parallelism=%d timeline trace differs from sequential (%d vs %d bytes)",
				par, len(got), len(seq))
		}
	}

	snap := func(par int) []byte {
		sc := timelineScenario(31)
		sc.Parallelism = par
		res, err := Execute(sc, Options{Telemetry: true, SketchK: 64})
		if err != nil {
			t.Fatalf("Execute(par=%d): %v", par, err)
		}
		sn := res.Snapshot
		var buf bytes.Buffer
		if err := telemetry.WriteSnapshot(&buf, sn); err != nil {
			t.Fatalf("WriteSnapshot(par=%d): %v", par, err)
		}
		return buf.Bytes()
	}
	seqSnap := snap(1)
	for _, par := range []int{2, 8} {
		if got := snap(par); !bytes.Equal(seqSnap, got) {
			t.Fatalf("Parallelism=%d timeline snapshot differs from sequential", par)
		}
	}
}

// TestTimelineFailoverRedirectsArrivals: no session arriving during the
// outage phase may be served by the down PoP, sessions outside it keep
// their native PoP, and every session's server must belong to the PoP
// its record names (a partitioner that disagreed with the plans would
// run redirected sessions on the down PoP's server).
func TestTimelineFailoverRedirectsArrivals(t *testing.T) {
	sc := timelineScenario(5)
	ds := mustRun(t, sc)
	pop := workload.Build(sc)
	perPoP := sc.Fleet.WithDefaults().ServersPerPoP
	outage := sc.Timeline.Phases[1]
	redirected := 0
	for i := range ds.Sessions {
		s := &ds.Sessions[i]
		plan := pop.PlanSession(s.SessionID)
		native := plan.Prefix.PoP
		inOutage := outage.Contains(s.ArrivalMS)
		switch {
		case inOutage && native == 2:
			if s.PoP != 0 {
				t.Fatalf("session %d arrived at %.0f ms on down PoP 2 but was served by PoP %d",
					s.SessionID, s.ArrivalMS, s.PoP)
			}
			if !plan.FailedOver {
				t.Fatalf("session %d redirected without FailedOver", s.SessionID)
			}
			redirected++
		default:
			if s.PoP != native {
				t.Fatalf("session %d (arrival %.0f ms) served by PoP %d, native %d",
					s.SessionID, s.ArrivalMS, s.PoP, native)
			}
		}
		if got := s.ServerID / perPoP; got != s.PoP {
			t.Fatalf("session %d served by server %d of PoP %d, record says PoP %d",
				s.SessionID, s.ServerID, got, s.PoP)
		}
	}
	if redirected == 0 {
		t.Fatal("no session was redirected by the outage phase (effect never fired)")
	}
}

// TestTimelineFlashCrowdConcentratesArrivals: the factor-3 surge phase
// must hold roughly 3x its proportional share of arrivals.
func TestTimelineFlashCrowdConcentratesArrivals(t *testing.T) {
	sc := timelineScenario(9).WithDefaults()
	pop := workload.Build(sc)
	crowd := sc.Timeline.Phases[0]
	in := 0
	for id := uint64(1); id <= uint64(sc.NumSessions); id++ {
		if crowd.Contains(pop.PlanSession(id).ArrivalMS) {
			in++
		}
	}
	// Rate mass: 4 min at 3x + 26 min at 1x = 38; the surge holds 12/38 ≈
	// 31.6% of arrivals vs 13.3% nominal. Allow generous sampling noise.
	share := float64(in) / float64(sc.NumSessions)
	if share < 0.24 || share > 0.40 {
		t.Fatalf("surge-phase arrival share = %.3f, want ≈ 0.316", share)
	}
}

// TestTimelineDegradesQoEInWindow: sessions arriving in the degradation
// phase must see materially worse QoE than the rest, and the windowed
// snapshot must cover every session.
func TestTimelineDegradesQoEInWindow(t *testing.T) {
	sc := timelineScenario(13)
	res, err := Execute(sc, Options{Telemetry: true, SketchK: 64})
	if err != nil {
		t.Fatal(err)
	}
	sn := res.Snapshot
	if len(sn.Windows) != 7 { // pre, crowd, gap, outage, gap, degrade, post
		t.Fatalf("snapshot windows = %d, want 7 (%v)", len(sn.Windows), sn.Windows)
	}
	var assigned uint64
	for _, w := range sn.Windows {
		assigned += sn.Counter(telemetry.WindowSessionsKey(w.Name))
	}
	if total := sn.Counter(telemetry.CounterSessions); assigned != total {
		t.Fatalf("windows cover %d of %d sessions", assigned, total)
	}
	if un := sn.Counter(telemetry.CounterSessionsUnwindowed); un != 0 {
		t.Fatalf("%d sessions fell outside every window", un)
	}
	degraded := sn.Sketch(telemetry.WindowSketchKey(telemetry.MetricStartupMS, "w05-degrade"))
	pre := sn.Sketch(telemetry.WindowSketchKey(telemetry.MetricStartupMS, "w00-pre"))
	post := sn.Sketch(telemetry.WindowSketchKey(telemetry.MetricStartupMS, "w06-post"))
	if degraded.N() == 0 || pre.N() == 0 || post.N() == 0 {
		t.Fatalf("empty window sketches: degrade=%d pre=%d post=%d", degraded.N(), pre.N(), post.N())
	}
	if d, p, q := degraded.Quantile(0.5), pre.Quantile(0.5), post.Quantile(0.5); d < 1.3*p || d < 1.3*q {
		t.Fatalf("degrade-window startup p50 %.0f ms not visibly worse than pre %.0f / post %.0f",
			d, p, q)
	}
}

// TestTimelineCacheShrinkRaisesMisses: the outage phase quarters every
// cache; the same scenario without the shrink must see a higher overall
// hit ratio. (The shrink also co-occurs with the backend brownout, so
// compare against a timeline identical except for the cache factor.)
func TestTimelineCacheShrinkRaisesMisses(t *testing.T) {
	run := func(cacheFactor float64) float64 {
		sc := timelineScenario(17)
		sc.Timeline.Phases[1].Effects.CacheCapacityFactor = cacheFactor
		res, err := Execute(sc, Options{Telemetry: true, SketchK: 64})
		if err != nil {
			t.Fatal(err)
		}
		sn := res.Snapshot
		return float64(sn.Counter(telemetry.CounterChunksHit)) /
			float64(sn.Counter(telemetry.CounterChunks))
	}
	shrunk := run(0.02) // 2% capacity during the phase
	intact := run(0)    // unchanged
	if shrunk >= intact {
		t.Fatalf("hit ratio with shrink %.4f >= without %.4f (resize never bit)", shrunk, intact)
	}
}

// TestTimelineValidationSurfacesInRun: an invalid timeline must fail in
// the plan phase with a clear error, not run half-configured.
func TestTimelineValidationSurfacesInRun(t *testing.T) {
	sc := smallScenario(1)
	sc.Timeline = timeline.Timeline{Phases: []timeline.Phase{
		{Name: "a", StartMS: 0, EndMS: 10e3},
		{Name: "b", StartMS: 5e3, EndMS: 15e3},
	}}
	if _, err := Execute(sc, Options{}); err == nil {
		t.Fatal("Run accepted an overlapping timeline")
	}
	sc = smallScenario(1)
	sc.Timeline = timeline.Timeline{Phases: []timeline.Phase{
		{Name: "a", StartMS: 0, EndMS: 10e3,
			Effects: timeline.Effects{PoPDown: []int{99}}},
	}}
	if _, err := Execute(sc, Options{}); err == nil {
		t.Fatal("Run accepted an out-of-fleet PoP outage")
	}
}
