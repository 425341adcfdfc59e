// Package netpath models the long-lived network characteristics of client
// /24 prefixes: the organization type behind them (residential ISP,
// enterprise, small business), baseline latency built from geographic
// propagation plus access- and backhaul components, jitter, access-link
// bandwidth, random loss, and a Markov on/off cross-traffic congestion
// process. These are the knobs behind the paper's §4.2 findings:
// enterprises dominate the high-CV(SRTT) list (Table 4) and the close-by
// tail-latency prefixes (Fig. 9), while residential ISPs sit near 1%
// high-CV sessions.
package netpath

import (
	"vidperf/internal/stats"
	"vidperf/internal/tcpmodel"
)

// OrgType classifies the organization that owns a client prefix.
type OrgType int

// Organization types, in decreasing share of the session mix.
const (
	Residential OrgType = iota
	Enterprise
	SmallBusiness
)

// String implements fmt.Stringer.
func (o OrgType) String() string {
	switch o {
	case Residential:
		return "residential"
	case Enterprise:
		return "enterprise"
	case SmallBusiness:
		return "small-business"
	}
	return "unknown"
}

// Profile is the persistent path character of one /24 prefix. All sessions
// from the prefix sample their connection parameters from it, which is what
// makes the paper's prefix-level problems *persistent*.
type Profile struct {
	Org     OrgType
	OrgName string // e.g. "Enterprise#17", "ResidentialISP#2"

	// BaseRTTms is the prefix's floor round trip to its PoP: propagation
	// (distance-derived) + access + (enterprises) proxy/VPN backhaul.
	BaseRTTms float64
	// JitterMS is the per-round RTT noise level.
	JitterMS float64
	// AccessKbps is the prefix's typical access-link rate.
	AccessKbps float64
	// LossProb is the per-segment random (non-congestive) loss rate.
	LossProb float64

	// Congestion episodes: a per-chunk Markov on/off process that adds
	// CongDelayMeanMS (exponential) to the path RTT while on. Enterprises
	// have busy uplinks -> high on-probability and magnitude.
	CongOnProb      float64 // P(off -> on) evaluated per chunk
	CongOffProb     float64 // P(on -> off) evaluated per chunk
	CongDelayMeanMS float64

	// Proxy marks prefixes behind an enterprise/ISP HTTP proxy; their
	// sessions are the ones the paper's §3 preprocessing filters out.
	Proxy bool
}

// ResidentialProfile builds a typical home-broadband prefix at the given
// propagation RTT. The 2015-era access mix is mostly cable/fiber with a
// DSL tail.
func ResidentialProfile(propRTTms float64, r *stats.Rand) Profile {
	p := Profile{
		Org:       Residential,
		BaseRTTms: propRTTms + r.Uniform(4, 14), // last-mile + home equipment
		JitterMS:  r.Uniform(0.5, 3),
		// Loss is bimodal across prefixes: most lines are clean, a
		// minority (interference-prone wifi, bad copper) lose 0.1–1% of
		// segments persistently. This yields the paper's ~40% loss-free
		// sessions with a spread reaching several percent.
		LossProb: lossyPrefixProb(r, 0.55, 0.0025),
		// Rare evening-congestion episodes, modest magnitude.
		CongOnProb:      0.004,
		CongOffProb:     0.5,
		CongDelayMeanMS: 40,
	}
	switch r.Choice([]float64{0.25, 0.55, 0.20}) {
	case 0: // fiber
		p.AccessKbps = r.Uniform(50000, 300000)
	case 1: // cable
		p.AccessKbps = r.Uniform(10000, 100000)
	default: // DSL
		p.AccessKbps = r.Uniform(1500, 12000)
	}
	return p
}

// EnterpriseProfile builds a corporate prefix: close to the PoP
// geographically but behind proxies, VPN concentrators and busy uplinks —
// the paper's explanation for close-by prefixes with bad, highly variable
// latency.
func EnterpriseProfile(propRTTms float64, r *stats.Rand) Profile {
	return Profile{
		Org: Enterprise,
		// Backhaul/VPN detour dominates the geographic term: traffic
		// trombones through a proxy or VPN concentrator, which is why the
		// paper finds geographically close prefixes with >100 ms floors.
		BaseRTTms: propRTTms + r.Uniform(25, 200),
		JitterMS:  r.Uniform(3, 18),
		// Shared office uplink, often shaped.
		AccessKbps: r.Uniform(2000, 40000),
		LossProb:   lossyPrefixProb(r, 0.40, 0.004),
		// Busy-hour congestion on the shared uplink: episodes short enough
		// that a session mixes both states, and large (many times the base
		// RTT — saturated office uplinks queue for seconds) so the mixture
		// pushes CV(SRTT) past 1 for busy-hour sessions.
		CongOnProb:      0.22,
		CongOffProb:     0.60,
		CongDelayMeanMS: 1000,
		Proxy:           r.Bool(0.55),
	}
}

// SmallBusinessProfile sits between the two.
func SmallBusinessProfile(propRTTms float64, r *stats.Rand) Profile {
	return Profile{
		Org:             SmallBusiness,
		BaseRTTms:       propRTTms + r.Uniform(6, 30),
		JitterMS:        r.Uniform(1, 8),
		AccessKbps:      r.Uniform(5000, 60000),
		LossProb:        lossyPrefixProb(r, 0.50, 0.003),
		CongOnProb:      0.06,
		CongOffProb:     0.50,
		CongDelayMeanMS: 250,
		Proxy:           r.Bool(0.15),
	}
}

// lossyPrefixProb draws a prefix's random-loss rate: cleanFrac of prefixes
// are lossless, the rest exponential with the given mean.
func lossyPrefixProb(r *stats.Rand, cleanFrac, mean float64) float64 {
	if r.Bool(cleanFrac) {
		return 0
	}
	return r.Exp(mean)
}

// SessionParams derives one session's TCP path parameters from the prefix
// profile: small per-session variation around the persistent baseline,
// plus the client-side draws (modem buffer, receive window) that make
// sessions from the same prefix behave differently.
func (p Profile) SessionParams(r *stats.Rand) tcpmodel.Params {
	// The lognormal multiplier stands in for diurnal variation: the
	// paper's 18-day trace samples each prefix at all hours, so sessions
	// from one prefix see meaningfully different baselines.
	base := p.BaseRTTms * r.LogNormal(0, 0.35)
	bw := p.AccessKbps * r.Uniform(0.75, 1.05)
	if bw < 300 {
		bw = 300
	}
	// Droptail buffer: a fixed device buffer, NOT scaled to the path's
	// BDP — which is precisely why slow links bufferbloat (hundreds of
	// ms of standing queue) while fast ones barely queue.
	var buf int64
	if p.Org == Enterprise {
		buf = int64(r.Uniform(32<<10, 256<<10)) // shaper queues are shallow
	} else {
		buf = int64(r.Uniform(48<<10, 512<<10)) // home modem/AP buffers
	}
	if buf < 32*1460 {
		buf = 32 * 1460
	}
	// Advertised receive window: Flash-era clients frequently pinned it
	// below path capacity, keeping the session loss-free but
	// throughput-limited.
	rcvChoices := []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 4 << 20}
	rcv := rcvChoices[r.Choice([]float64{15, 25, 25, 20, 15})]
	return tcpmodel.Params{
		BaseRTTms:      base,
		JitterMS:       p.JitterMS * r.Uniform(0.8, 1.3),
		BottleneckKbps: bw,
		BufferBytes:    buf,
		RandomLossProb: p.LossProb,
		RcvWindowBytes: rcv,
	}
}

// Congestion is the per-session instantiation of the prefix's on/off
// cross-traffic process. Call Step before each chunk and feed the returned
// extra delay to tcpmodel.Conn.SetExtraDelayMS.
type Congestion struct {
	prof  Profile
	scale float64 // per-session busy-hour factor
	on    bool
	mag   float64
}

// NewCongestion starts a session's congestion process in the off state.
// The per-session scale models time of day: an enterprise uplink at 3 am
// is quiet, at 11 am it is saturated — which is what makes ~40% of
// enterprise sessions cross CV(SRTT) > 1 (Table 4) while others stay
// clean.
func (p Profile) NewCongestion(r *stats.Rand) Congestion {
	scale := 1.0
	switch p.Org {
	case Enterprise:
		if r.Bool(0.40) {
			scale = r.Uniform(0, 0.25) // off-hours session
		} else {
			scale = r.LogNormal(0.3, 0.9) // busy-hour, heavy-tailed
		}
	case SmallBusiness:
		if r.Bool(0.55) {
			scale = r.Uniform(0, 0.3)
		} else {
			scale = r.LogNormal(0, 0.7)
		}
	}
	return Congestion{prof: p, scale: scale}
}

// Step advances the Markov chain one chunk and returns the extra path
// delay (ms) in effect for that chunk.
func (c *Congestion) Step(r *stats.Rand) float64 {
	if c.on {
		if r.Bool(c.prof.CongOffProb) {
			c.on = false
			c.mag = 0
		}
	} else {
		if r.Bool(c.prof.CongOnProb) {
			c.on = true
			c.mag = r.Exp(c.prof.CongDelayMeanMS * c.scale)
		}
	}
	if !c.on {
		return 0
	}
	// Magnitude wobbles while the episode lasts.
	return c.mag * r.Uniform(0.4, 1.8)
}

// LossBoost converts an episode's extra delay into the elevated drop rate
// of the congested queue causing it (capped at 8%). Sessions feed it to
// the connection alongside SetExtraDelayMS, coupling latency spikes with
// loss the way a saturated uplink does.
func LossBoost(extraDelayMS float64) float64 {
	boost := extraDelayMS * 6e-5
	if boost > 0.08 {
		boost = 0.08
	}
	return boost
}

// On reports whether an episode is currently active.
func (c *Congestion) On() bool { return c.on }
