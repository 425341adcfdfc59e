package netpath

import (
	"math"
	"testing"

	"vidperf/internal/stats"
	"vidperf/internal/tcpmodel"
)

// TestTromboneApply pins the path-parameter overlay: the zero trombone
// is a no-op, the detour adds RTT and multiplies jitter, the egress cap
// only ever lowers the bottleneck, and the 300 kbit/s floor holds.
func TestTromboneApply(t *testing.T) {
	base := tcpmodel.Params{BaseRTTms: 40, JitterMS: 5, BottleneckKbps: 8000}
	if got := (Trombone{}).Apply(base); got != base {
		t.Fatalf("zero trombone changed params: %+v", got)
	}
	tr := Trombone{ExtraRTTMS: 120, JitterFactor: 3, EgressKbps: 2000}
	got := tr.Apply(base)
	if got.BaseRTTms != 160 {
		t.Errorf("BaseRTTms = %g, want 160", got.BaseRTTms)
	}
	if got.JitterMS != 15 {
		t.Errorf("JitterMS = %g, want 15", got.JitterMS)
	}
	if got.BottleneckKbps != 2000 {
		t.Errorf("BottleneckKbps = %g, want the 2000 egress cap", got.BottleneckKbps)
	}
	// A session already below the cap keeps its own bottleneck.
	slow := base
	slow.BottleneckKbps = 1200
	if got := tr.Apply(slow); got.BottleneckKbps != 1200 {
		t.Errorf("cap raised a slow session to %g", got.BottleneckKbps)
	}
	// The floor holds even against an absurdly starved egress share.
	if got := (Trombone{EgressKbps: 50}).Apply(base); got.BottleneckKbps != 300 {
		t.Errorf("floor breached: %g", got.BottleneckKbps)
	}
}

// TestTromboneCongestionProfile: the shared-egress queueing overlay
// never improves any congestion knob — episodes only get more frequent,
// stickier, and larger.
func TestTromboneCongestionProfile(t *testing.T) {
	base := Profile{CongOnProb: 0.02, CongOffProb: 0.4, CongDelayMeanMS: 80}
	tr := Trombone{QueueOnProb: 0.05, QueueOffProb: 0.2, QueueDelayMeanMS: 200}
	got := tr.CongestionProfile(base)
	if got.CongOnProb != 0.05 || got.CongOffProb != 0.2 || got.CongDelayMeanMS != 200 {
		t.Fatalf("overlay did not worsen the profile: %+v", got)
	}
	// A trombone milder than the prefix's own congestion changes nothing:
	// max/min semantics, never an improvement.
	mild := Trombone{QueueOnProb: 0.001, QueueOffProb: 0.9, QueueDelayMeanMS: 10}
	got = mild.CongestionProfile(base)
	if got.CongOnProb != base.CongOnProb || got.CongOffProb != base.CongOffProb ||
		got.CongDelayMeanMS != base.CongDelayMeanMS {
		t.Fatalf("mild trombone improved the profile: %+v", got)
	}
}

// TestSmallBusinessProfile sanity-checks the small-business prefix
// builder: plausible knobs above the propagation floor.
func TestSmallBusinessProfile(t *testing.T) {
	p := SmallBusinessProfile(30, stats.NewRand(7))
	if p.Org != SmallBusiness {
		t.Errorf("Org = %v", p.Org)
	}
	if p.BaseRTTms <= 30 {
		t.Errorf("BaseRTTms = %g, want > propagation floor", p.BaseRTTms)
	}
	if p.AccessKbps <= 0 || p.CongOnProb <= 0 || p.CongOffProb <= 0 {
		t.Errorf("degenerate profile: %+v", p)
	}
}

// TestLossBoost: congestion delay maps to a proportional drop rate,
// capped at 8%.
func TestLossBoost(t *testing.T) {
	if got := LossBoost(0); got != 0 {
		t.Errorf("LossBoost(0) = %g", got)
	}
	if got := LossBoost(500); math.Abs(got-0.03) > 1e-12 {
		t.Errorf("LossBoost(500) = %g, want 0.03", got)
	}
	if got := LossBoost(1e6); got != 0.08 {
		t.Errorf("LossBoost(1e6) = %g, want the 0.08 cap", got)
	}
}
