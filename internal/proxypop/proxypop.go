// Package proxypop models proxied-enterprise populations: the ~23% of
// sessions the paper's §3 preprocessing removes because they reach the
// CDN through a shared HTTP proxy or NAT/VPN egress. Instead of
// discarding them, a proxy block assigns a configurable share of
// sessions to shared-egress cohorts. Each cohort owns one egress
// identity (the IP every member presents to the CDN) and a tromboned
// path (netpath.Trombone): the detour through the concentrator adds
// RTT, inflates jitter, overlays shared-egress queueing — the §4.2
// mechanism behind enterprises dominating the high-CV(SRTT) tail
// (Table 4, Fig. 9) — and optionally divides the egress uplink among
// concurrent members.
//
// Everything here is pure arithmetic: cohort membership consumes
// exactly one unit draw per session (Assign), cohort tables hash from
// the scenario seed with no RNG (BuildCohorts), and the zero-valued
// Config is byte-identical to the block never existing, so the
// byte-identity invariant at any parallelism is preserved.
package proxypop

import (
	"fmt"
	"math"

	"vidperf/internal/netpath"
	"vidperf/internal/stats"
)

// DefaultCohorts is the number of shared-egress identities the proxied
// share of an enabled Config splits into when it sets none.
const DefaultCohorts = 12

// The tromboned path and the beacon evidence of every proxied session.
const (
	// extraRTTMinMS / extraRTTMaxMS bound the per-cohort trombone
	// penalty, mirroring the enterprise backhaul detour term
	// (netpath.EnterpriseProfile draws Uniform(25, 200)) behind the
	// close-but-slow prefixes of §4.2 (Fig. 9).
	extraRTTMinMS = 25
	extraRTTMaxMS = 200
	// jitterFactor multiplies prefix jitter for tromboned paths: two
	// extra queues (client→proxy, proxy→CDN) on every round trip, the
	// high-CV(SRTT) tail of Table 4.
	jitterFactor = 3
	// beaconMismatchProb is the share of proxied sessions whose player
	// beacon still reports the true client address (§3 rule i
	// evidence); the rest are only catchable by the shared-IP volume
	// rule (ii).
	beaconMismatchProb = 0.7
)

// Bounds enforced by Validate.
const (
	MaxCohorts = 4096
	// MinEgressKbps floors the per-session share of a contended egress
	// uplink — the same floor netpath.SessionParams enforces.
	MinEgressKbps = 300
)

// Shared-egress queueing overlay constants (see netpath.Trombone): the
// proxy uplink mixes many flows, so queue episodes are frequent, sticky
// enough that a session samples both states, and sized in proportion to
// the detour (a farther concentrator fronts a bigger office).
const (
	queueOnProb      = 0.18
	queueOffProb     = 0.55
	queueDelayPerRTT = 4
	queueDelayMinMS  = 300
)

// Config is the proxy block of a workload scenario. The zero value
// (Share == 0) disables proxied populations entirely; an enabled config
// uses the neutral-zero convention for the remaining knobs (0 selects
// the default, like every other scenario field). Its JSON keys are those
// of an experiment spec's "proxy" block and of a serve checkpoint.
type Config struct {
	// Share is the fraction of sessions behind a shared egress. 0
	// disables the block; the paper's trace measured ≈0.23.
	Share float64 `json:"share"`
	// Cohorts is how many egress identities the proxied share splits
	// into; 0 selects DefaultCohorts.
	Cohorts int `json:"cohorts,omitempty"`
	// EgressKbps is each cohort's shared uplink capacity, divided among
	// the expected concurrent members (0 = uncontended egress).
	EgressKbps float64 `json:"egress_kbps,omitempty"`
}

// Enabled reports whether the scenario models proxied populations.
func (c Config) Enabled() bool { return c.Share > 0 }

// WithDefaults fills the zero-valued knobs of an enabled config. A
// disabled config is returned unchanged, so a scenario without a proxy
// block stays byte-for-byte the zero value.
func (c Config) WithDefaults() Config {
	if !c.Enabled() {
		return c
	}
	if c.Cohorts == 0 {
		c.Cohorts = DefaultCohorts
	}
	return c
}

// Validate checks the config's bounds. A disabled config (Share == 0)
// is always valid apart from a negative share; Validate accepts both
// raw and defaulted configs (0 means "default" everywhere).
func (c Config) Validate() error {
	if c.Share < 0 || c.Share > 1 {
		return fmt.Errorf("proxy: share must be in [0, 1], got %g", c.Share)
	}
	if !c.Enabled() {
		return nil
	}
	if c.Cohorts < 0 || c.Cohorts > MaxCohorts {
		return fmt.Errorf("proxy: cohorts must be in [0, %d], got %d", MaxCohorts, c.Cohorts)
	}
	if c.EgressKbps < 0 {
		return fmt.Errorf("proxy: egress kbps must be >= 0, got %g", c.EgressKbps)
	}
	return nil
}

// Assignment is one session's proxy placement, derived from a single
// unit draw.
type Assignment struct {
	// Proxied marks the session as behind a shared egress.
	Proxied bool
	// Cohort is the 1-based shared-egress cohort (0 when not proxied);
	// 0 stays "no cohort" everywhere downstream.
	Cohort int
	// Mismatch reports whether the player beacon carries the true
	// client address while the CDN sees the egress (§3 rule i). When
	// false the beacon itself egresses through the proxy, so both
	// addresses agree and only the volume rule can catch the session.
	Mismatch bool
}

// Assign converts one unit draw u ∈ [0, 1) into the session's proxy
// placement. The share is clamped to [0, 1] defensively (Validate
// rejects out-of-range specs at the boundary); cohort membership and
// the beacon-mismatch decision both reuse sub-intervals of the same
// draw, so an enabled block costs exactly one extra draw per session.
func (c Config) Assign(u float64) Assignment {
	share := c.Share
	if share > 1 {
		share = 1
	}
	if share <= 0 || u < 0 || u >= share {
		return Assignment{}
	}
	n := c.Cohorts
	if n < 1 {
		n = 1
	}
	scaled := u / share * float64(n)
	cohort := int(scaled) + 1
	if cohort < 1 {
		cohort = 1
	}
	if cohort > n {
		cohort = n
	}
	frac := scaled - math.Floor(scaled)
	return Assignment{
		Proxied:  true,
		Cohort:   cohort,
		Mismatch: frac < beaconMismatchProb,
	}
}

// Cohort is one shared-egress identity: the IP all member sessions
// present to the CDN and the tromboned path every member traverses.
type Cohort struct {
	// ID is the 1-based cohort number (Assignment.Cohort).
	ID int
	// EgressIP is the cohort's single CDN-visible address.
	EgressIP string
	// Trombone is the member path effect, including the per-session
	// share of a contended egress uplink.
	Trombone netpath.Trombone
}

// BuildCohorts materializes the cohort table for a campaign seed. The
// per-cohort trombone penalty hashes from (seed, cohort ID) with
// stats.SplitMix64 — no RNG draws — so building the table leaves the
// population's draw streams untouched. perSessionKbps is the contended
// per-member egress share (see PerSessionEgressKbps; 0 = uncontended).
// Call on a defaulted, validated config.
func (c Config) BuildCohorts(seed uint64, perSessionKbps float64) []Cohort {
	if !c.Enabled() {
		return nil
	}
	n := c.Cohorts
	if n < 1 {
		n = 1
	}
	out := make([]Cohort, n)
	for i := range out {
		id := i + 1
		u := unitFloat(stats.SplitMix64(seed ^ uint64(id)*0x9e3779b97f4a7c15 ^ cohortSalt))
		extra := extraRTTMinMS + u*(extraRTTMaxMS-extraRTTMinMS)
		qDelay := queueDelayPerRTT * extra
		if qDelay < queueDelayMinMS {
			qDelay = queueDelayMinMS
		}
		out[i] = Cohort{
			ID:       id,
			EgressIP: fmt.Sprintf("egress-%04d", id),
			Trombone: netpath.Trombone{
				ExtraRTTMS:       extra,
				JitterFactor:     jitterFactor,
				EgressKbps:       perSessionKbps,
				QueueOnProb:      queueOnProb,
				QueueOffProb:     queueOffProb,
				QueueDelayMeanMS: qDelay,
			},
		}
	}
	return out
}

// cohortSalt separates the cohort hash stream from every seed-derived
// RNG stream in the simulator.
const cohortSalt = 0x70726f787970 // "proxyp"

// ExpectedConcurrent estimates how many cohort members stream at once —
// the mean-field occupancy (members × mean session seconds / window
// seconds), floored at one so an uncontended-looking cohort still
// divides by something. A closed form keeps contention deterministic
// and shard-free: no cross-shard session counting, so the byte-identity
// invariant survives any parallelism.
func (c Config) ExpectedConcurrent(sessions int, meanWatchedChunks, chunkSec, windowMS float64) float64 {
	n := c.Cohorts
	if n < 1 {
		n = 1
	}
	share := c.Share
	if share > 1 {
		share = 1
	}
	members := share * float64(sessions) / float64(n)
	if windowMS <= 0 || meanWatchedChunks <= 0 || chunkSec <= 0 {
		return 1
	}
	conc := members * meanWatchedChunks * chunkSec * 1000 / windowMS
	if conc < 1 {
		return 1
	}
	return conc
}

// PerSessionEgressKbps divides the cohort uplink among the expected
// concurrent members, floored at MinEgressKbps. 0 in, 0 out: an
// unconfigured egress stays uncontended.
func (c Config) PerSessionEgressKbps(concurrent float64) float64 {
	if c.EgressKbps <= 0 {
		return 0
	}
	if concurrent < 1 {
		concurrent = 1
	}
	kbps := c.EgressKbps / concurrent
	if kbps < MinEgressKbps {
		kbps = MinEgressKbps
	}
	return kbps
}

// unitFloat maps a hash to [0, 1) with 53-bit precision.
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }
