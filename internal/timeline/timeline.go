// Package timeline adds a time axis to a campaign: an ordered, validated
// sequence of phases that inject faults and degradations at scheduled
// virtual times — PoP outage with failover, backend latency brownout,
// cache-capacity shrink, network loss/throughput/RTT degradation, and
// flash-crowd arrival-rate multipliers. The paper characterizes exactly
// these transients (cache-miss storms, backend slowdowns, path
// congestion); a static scenario cannot reproduce them, a timeline can.
//
// Determinism contract. Every phase effect is keyed off *virtual* time,
// never wall clock, and resolves through one of two shard-safe channels:
//
//   - Per-session effects (path degradation, backend factor, failover)
//     latch at the session's arrival time inside workload.PlanSession — a
//     pure function of (seed, session ID, timeline) — so a session that
//     straddles a phase boundary keeps its arrival-time parameters for
//     its whole life, and no cross-shard coordination ever happens.
//   - Per-server effects (cache-capacity shrink) are engine events each
//     PoP shard schedules at the phase boundaries before any arrival,
//     entirely within the shard's own event system.
//
// Both channels draw no randomness of their own, so an empty timeline is
// byte-identical to no timeline and a populated one is byte-identical at
// every Scenario.Parallelism setting.
//
// Flash crowds reshape the arrival process itself: the timeline defines a
// piecewise-constant arrival-rate function (factor 1 outside phases) and
// NewArrivalWarp maps each session's uniform nominal draw through the
// inverse cumulative rate, concentrating arrivals into high-rate phases
// without adding or reordering RNG draws.
//
// The same phase boundaries drive reporting: Windows cuts the arrival
// window into named before/during/after segments, and internal/telemetry
// maintains per-window accumulators so cmd/analyze -windows can show QoE
// and diagnosis shares degrading during a phase and recovering after it.
package timeline

import (
	"fmt"
	"regexp"
	"sort"
)

// Phase is one timed regime of the campaign: a half-open virtual-time
// window [StartMS, EndMS) and the parameter overrides in force inside it.
type Phase struct {
	// Name labels the phase in window names, counter keys, and reports.
	// It must match ^[a-z][a-z0-9-]*$ so derived telemetry keys stay
	// parseable (no '=', '_' or whitespace).
	Name string

	// StartMS / EndMS bound the phase in virtual milliseconds since
	// campaign start. Phases must be ordered and non-overlapping.
	StartMS float64
	EndMS   float64

	Effects Effects
}

// Contains reports whether t falls inside the phase's half-open window.
func (p Phase) Contains(t float64) bool { return t >= p.StartMS && t < p.EndMS }

// Effects are the parameter overrides a phase applies. The zero value of
// every field means "unchanged"; factors therefore use 0 (not 1) as their
// neutral encoding and are substituted with 1 when read. Its JSON keys
// are those of a phase in an experiment spec's "timeline" block.
type Effects struct {
	// PoPDown lists PoP IDs that are out during the phase. Sessions whose
	// prefix maps to a down PoP and that arrive inside the phase are
	// served by FailoverPoP instead (modelled as anycast/DNS failover:
	// the outage redirects new arrivals; sessions already playing when
	// the PoP fails are not killed — they arrived earlier, on a healthy
	// PoP).
	PoPDown []int `json:"pop_down,omitempty"`
	// FailoverPoP receives the redirected sessions (default 0). It must
	// not itself be listed in PoPDown.
	FailoverPoP int `json:"failover_pop,omitempty"`
	// FailoverExtraRTTms is added to a redirected session's base RTT,
	// standing in for the longer path to the farther PoP.
	FailoverExtraRTTms float64 `json:"failover_extra_rtt_ms,omitempty"`

	// BackendLatencyFactor multiplies D_BE for cache-miss fetches issued
	// by sessions that arrived inside the phase (origin brownout).
	// 0 means unchanged (factor 1).
	BackendLatencyFactor float64 `json:"backend_latency_factor,omitempty"`

	// CacheCapacityFactor scales every server cache's RAM and disk
	// capacity while the phase lasts (e.g. 0.25 = shrink to a quarter,
	// evicting down at the phase start; restored at the phase end).
	// 0 means unchanged. This is a per-server engine event, not a
	// per-session override.
	CacheCapacityFactor float64 `json:"cache_capacity_factor,omitempty"`

	// Network-path degradation for sessions arriving inside the phase.
	ExtraLossProb    float64 `json:"extra_loss_prob,omitempty"`   // added to the per-segment random loss rate
	ThroughputFactor float64 `json:"throughput_factor,omitempty"` // multiplies the bottleneck rate (0 = unchanged)
	ExtraRTTms       float64 `json:"extra_rtt_ms,omitempty"`      // added to the base path RTT

	// ArrivalRateFactor multiplies the arrival density inside the phase
	// (flash crowd). 0 means unchanged (factor 1); values below 1 thin
	// arrivals, 0 is not a valid way to express "no arrivals" — use a
	// small positive factor.
	ArrivalRateFactor float64 `json:"arrival_rate_factor,omitempty"`
}

// rateOr returns f if set (non-zero), else 1 — the neutral-0 convention
// every factor field uses.
func rateOr(f float64) float64 {
	if f == 0 {
		return 1
	}
	return f
}

// ArrivalRate returns the phase's effective arrival-rate factor.
func (e Effects) ArrivalRate() float64 { return rateOr(e.ArrivalRateFactor) }

// BackendFactor returns the phase's effective backend-latency factor.
func (e Effects) BackendFactor() float64 { return rateOr(e.BackendLatencyFactor) }

// PoPIsDown reports whether the phase takes popID out.
func (e Effects) PoPIsDown(popID int) bool {
	for _, p := range e.PoPDown {
		if p == popID {
			return true
		}
	}
	return false
}

// Timeline is an ordered sequence of non-overlapping phases. The zero
// value is the empty timeline: no phases, no effects, byte-identical
// output to a scenario without one.
type Timeline struct {
	Phases []Phase
}

// Empty reports whether the timeline has no phases.
func (t Timeline) Empty() bool { return len(t.Phases) == 0 }

var phaseNameRE = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)

// Validate checks the intrinsic invariants every consumer relies on:
// key-safe unique phase names, non-negative ordered bounds, strictly
// positive durations, no overlap between phases, and effect parameters
// inside their legal ranges. PoP IDs are validated against the fleet by
// ValidatePoPs, which needs the fleet size.
func (t Timeline) Validate() error {
	seen := map[string]bool{}
	for i, p := range t.Phases {
		if !phaseNameRE.MatchString(p.Name) {
			return fmt.Errorf("timeline: phase %d name %q must match %s", i, p.Name, phaseNameRE)
		}
		if seen[p.Name] {
			return fmt.Errorf("timeline: duplicate phase name %q", p.Name)
		}
		seen[p.Name] = true
		if p.StartMS < 0 {
			return fmt.Errorf("timeline: phase %q starts at %g ms (must be >= 0)", p.Name, p.StartMS)
		}
		if p.EndMS <= p.StartMS {
			return fmt.Errorf("timeline: phase %q has non-positive duration [%g, %g)", p.Name, p.StartMS, p.EndMS)
		}
		if i > 0 && p.StartMS < t.Phases[i-1].EndMS {
			return fmt.Errorf("timeline: phase %q [%g, %g) overlaps %q [%g, %g) (phases must be ordered and disjoint)",
				p.Name, p.StartMS, p.EndMS,
				t.Phases[i-1].Name, t.Phases[i-1].StartMS, t.Phases[i-1].EndMS)
		}
		if err := p.Effects.validate(p.Name); err != nil {
			return err
		}
	}
	return nil
}

func (e Effects) validate(phase string) error {
	if e.BackendLatencyFactor < 0 {
		return fmt.Errorf("timeline: phase %q backend latency factor %g must be >= 0", phase, e.BackendLatencyFactor)
	}
	if e.CacheCapacityFactor < 0 {
		return fmt.Errorf("timeline: phase %q cache capacity factor %g must be >= 0", phase, e.CacheCapacityFactor)
	}
	if e.ExtraLossProb < 0 || e.ExtraLossProb > 1 {
		return fmt.Errorf("timeline: phase %q extra loss prob %g must be in [0, 1]", phase, e.ExtraLossProb)
	}
	if e.ThroughputFactor < 0 {
		return fmt.Errorf("timeline: phase %q throughput factor %g must be >= 0", phase, e.ThroughputFactor)
	}
	if e.ArrivalRateFactor < 0 {
		return fmt.Errorf("timeline: phase %q arrival rate factor %g must be >= 0", phase, e.ArrivalRateFactor)
	}
	if e.ExtraRTTms < 0 {
		return fmt.Errorf("timeline: phase %q extra RTT %g ms must be >= 0", phase, e.ExtraRTTms)
	}
	if e.FailoverExtraRTTms < 0 {
		return fmt.Errorf("timeline: phase %q failover extra RTT %g ms must be >= 0", phase, e.FailoverExtraRTTms)
	}
	if e.FailoverPoP < 0 {
		return fmt.Errorf("timeline: phase %q failover PoP %d must be >= 0", phase, e.FailoverPoP)
	}
	for _, p := range e.PoPDown {
		if p < 0 {
			return fmt.Errorf("timeline: phase %q PoP %d must be >= 0", phase, p)
		}
		if p == e.FailoverPoP {
			return fmt.Errorf("timeline: phase %q fails over to PoP %d, which it also takes down", phase, p)
		}
	}
	return nil
}

// ValidatePoPs checks that every PoP referenced by the timeline exists in
// a fleet of numPoPs PoPs. It is separate from Validate because the fleet
// size is scenario state the timeline itself does not carry.
func (t Timeline) ValidatePoPs(numPoPs int) error {
	for _, p := range t.Phases {
		for _, pop := range p.Effects.PoPDown {
			if pop >= numPoPs {
				return fmt.Errorf("timeline: phase %q takes down PoP %d but the fleet has %d PoPs", p.Name, pop, numPoPs)
			}
		}
		if len(p.Effects.PoPDown) > 0 && p.Effects.FailoverPoP >= numPoPs {
			return fmt.Errorf("timeline: phase %q fails over to PoP %d but the fleet has %d PoPs", p.Name, p.Effects.FailoverPoP, numPoPs)
		}
	}
	return nil
}

// PhaseAt returns the phase whose half-open window contains t, or nil
// when t falls between phases (or the timeline is empty).
func (t Timeline) PhaseAt(at float64) *Phase {
	// Binary search over the ordered, disjoint phases.
	i := sort.Search(len(t.Phases), func(i int) bool { return t.Phases[i].EndMS > at })
	if i < len(t.Phases) && t.Phases[i].Contains(at) {
		return &t.Phases[i]
	}
	return nil
}
