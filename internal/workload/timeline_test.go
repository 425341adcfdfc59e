package workload

import (
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/timeline"
)

// timelineScenario wraps the whole arrival window in one phase so every
// session is planned under its effects.
func timelineScenario(seed uint64, e timeline.Effects) Scenario {
	sc := Scenario{
		Seed:        seed,
		NumSessions: 200,
		NumPrefixes: 100,
		Catalog:     catalog.Config{NumVideos: 500},
	}.WithDefaults()
	sc.Timeline = timeline.Timeline{Phases: []timeline.Phase{{
		Name: "all", StartMS: 0, EndMS: sc.ArrivalWindowMS, Effects: e,
	}}}
	return sc
}

// TestPlanEffectsApplied: a phase covering the whole window must shift
// every plan's path parameters and backend factor relative to the same
// seed without a timeline, leaving all RNG-drawn fields untouched.
func TestPlanEffectsApplied(t *testing.T) {
	base := Build(timelineScenario(3, timeline.Effects{}).WithDefaults())
	degraded := Build(timelineScenario(3, timeline.Effects{
		ExtraRTTms:           40,
		ExtraLossProb:        0.02,
		ThroughputFactor:     0.5,
		BackendLatencyFactor: 3,
	}))
	for id := uint64(1); id <= 200; id++ {
		a, b := base.PlanSession(id), degraded.PlanSession(id)
		if b.PathParams.BaseRTTms != a.PathParams.BaseRTTms+40 {
			t.Fatalf("session %d: RTT %g, want %g+40", id, b.PathParams.BaseRTTms, a.PathParams.BaseRTTms)
		}
		if b.PathParams.RandomLossProb != a.PathParams.RandomLossProb+0.02 {
			t.Fatalf("session %d: loss %g, want %g+0.02", id, b.PathParams.RandomLossProb, a.PathParams.RandomLossProb)
		}
		want := a.PathParams.BottleneckKbps * 0.5
		if want < 300 {
			want = 300
		}
		if b.PathParams.BottleneckKbps != want {
			t.Fatalf("session %d: bw %g, want %g", id, b.PathParams.BottleneckKbps, want)
		}
		if a.BackendFactor != 1 || b.BackendFactor != 3 {
			t.Fatalf("session %d: backend factors %g/%g, want 1/3", id, a.BackendFactor, b.BackendFactor)
		}
		// Drawn fields must be identical: effects are overlays, not extra
		// RNG draws.
		if a.ArrivalMS != b.ArrivalMS || a.Video.ID != b.Video.ID ||
			a.WatchChunks != b.WatchChunks || a.Platform != b.Platform {
			t.Fatalf("session %d: drawn plan fields diverged", id)
		}
	}
}

// TestEmptyTimelineIsTransparent: the zero timeline must produce plans
// identical to the pre-timeline code path, field for field.
func TestEmptyTimelineIsTransparent(t *testing.T) {
	sc := Scenario{Seed: 5, NumSessions: 100, NumPrefixes: 60,
		Catalog: catalog.Config{NumVideos: 400}}
	pop := Build(sc)
	for id := uint64(1); id <= 100; id++ {
		plan := pop.PlanSession(id)
		if plan.ServingPoP != plan.Prefix.PoP {
			t.Fatalf("session %d: ServingPoP %d != prefix PoP %d", id, plan.ServingPoP, plan.Prefix.PoP)
		}
		if plan.BackendFactor != 1 || plan.FailedOver {
			t.Fatalf("session %d: unexpected effect fields %+v", id, plan)
		}
	}
	checkPartition(t, pop)
}

// TestFailoverConsistency: with an outage phase, sessions homed on a down
// PoP are redirected and carry the extra RTT, and the partitioner places
// every session on its serving PoP's shards.
func TestFailoverConsistency(t *testing.T) {
	sc := timelineScenario(7, timeline.Effects{
		PoPDown: []int{1, 2}, FailoverPoP: 0, FailoverExtraRTTms: 55,
	})
	pop := Build(sc)
	base := Build(timelineScenario(7, timeline.Effects{}))
	redirected := 0
	for id := uint64(1); id <= 200; id++ {
		plan := pop.PlanSession(id)
		if plan.Prefix.PoP == 1 || plan.Prefix.PoP == 2 {
			if plan.ServingPoP != 0 || !plan.FailedOver {
				t.Fatalf("session %d on down PoP %d not redirected: %+v", id, plan.Prefix.PoP, plan)
			}
			a := base.PlanSession(id)
			if plan.PathParams.BaseRTTms != a.PathParams.BaseRTTms+55 {
				t.Fatalf("session %d: failover RTT %g, want %g+55", id,
					plan.PathParams.BaseRTTms, a.PathParams.BaseRTTms)
			}
			redirected++
		} else if plan.ServingPoP != plan.Prefix.PoP || plan.FailedOver {
			t.Fatalf("session %d on healthy PoP was redirected: %+v", id, plan)
		}
	}
	if redirected == 0 {
		t.Fatal("no session mapped to the down PoPs (test not exercising failover)")
	}
	checkPartition(t, pop)
}

// TestWarpedArrivalConsistency: with an arrival surge, every warped
// arrival stays in the window and the partitioner carries exactly the
// warped arrival PlanSession embeds.
func TestWarpedArrivalConsistency(t *testing.T) {
	sc := Scenario{
		Seed: 11, NumSessions: 200, NumPrefixes: 100,
		Catalog: catalog.Config{NumVideos: 500},
	}.WithDefaults()
	sc.Timeline = timeline.Timeline{Phases: []timeline.Phase{{
		Name: "crowd", StartMS: 5 * 60e3, EndMS: 10 * 60e3,
		Effects: timeline.Effects{ArrivalRateFactor: 5},
	}}}
	pop := Build(sc)
	for id := uint64(1); id <= 200; id++ {
		plan := pop.PlanSession(id)
		if plan.ArrivalMS < 0 || plan.ArrivalMS >= sc.ArrivalWindowMS {
			t.Fatalf("session %d: warped arrival %g escaped the window", id, plan.ArrivalMS)
		}
	}
	checkPartition(t, pop)
}
