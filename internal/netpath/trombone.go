package netpath

import "vidperf/internal/tcpmodel"

// Trombone is the path effect of funneling a session through a shared
// proxy/NAT egress (internal/proxypop): the detour adds a fixed RTT
// penalty, multiplies jitter (two extra queues on the path), optionally
// caps throughput at the cohort's per-session share of the egress
// uplink, and overlays a shared-egress queueing process on the prefix's
// congestion profile. The zero value is a no-op on both Params and
// Profile, matching the disabled==absent convention.
type Trombone struct {
	// ExtraRTTMS is the detour's round-trip penalty, added to the path
	// floor the way EnterpriseProfile's backhaul term is.
	ExtraRTTMS float64
	// JitterFactor multiplies the prefix's per-round jitter (<= 0 or 1
	// leaves it unchanged).
	JitterFactor float64
	// EgressKbps, when > 0, caps the session's bottleneck at its share
	// of the cohort's egress uplink.
	EgressKbps float64

	// Shared-egress queueing: concurrent cohort members contend for one
	// proxy uplink, so on/off episodes are both more frequent and larger
	// than a clean residential path's. Each knob only ever worsens the
	// base profile (see CongestionProfile).
	QueueOnProb      float64
	QueueOffProb     float64
	QueueDelayMeanMS float64
}

// Apply overlays the trombone on one session's drawn path parameters.
// Pure arithmetic, no RNG draws — it runs inside PlanSession after the
// path draw, like timeline phase effects.
func (t Trombone) Apply(p tcpmodel.Params) tcpmodel.Params {
	p.BaseRTTms += t.ExtraRTTMS
	if t.JitterFactor > 0 {
		p.JitterMS *= t.JitterFactor
	}
	if t.EgressKbps > 0 && p.BottleneckKbps > t.EgressKbps {
		p.BottleneckKbps = t.EgressKbps
	}
	// Keep the floor SessionParams enforces.
	if p.BottleneckKbps < 300 {
		p.BottleneckKbps = 300
	}
	return p
}

// CongestionProfile overlays the shared-egress queueing process on the
// prefix's congestion knobs, never improving any of them: episodes get
// at least as frequent (on-prob up), at least as sticky (off-prob
// down), and at least as large (delay up). Org is preserved, so the
// per-session busy-hour scale draws in NewCongestion are unchanged —
// which keeps the plan/session draw streams aligned with the
// non-proxied world.
func (t Trombone) CongestionProfile(p Profile) Profile {
	if t.QueueOnProb > p.CongOnProb {
		p.CongOnProb = t.QueueOnProb
	}
	if t.QueueOffProb > 0 && t.QueueOffProb < p.CongOffProb {
		p.CongOffProb = t.QueueOffProb
	}
	if t.QueueDelayMeanMS > p.CongDelayMeanMS {
		p.CongDelayMeanMS = t.QueueDelayMeanMS
	}
	return p
}
