// timeline.go is the JSON face of internal/timeline: the "timeline"
// block of an experiment spec. Like the rest of the spec format it is
// strict — unknown fields are rejected by the spec decoder — and uses
// campaign-friendly units (minutes for phase bounds, matching the
// arrival_window_min scenario knob).
package experiment

import (
	"fmt"

	"vidperf/internal/timeline"
)

// TimelineSpec is the spec-file encoding of a campaign event timeline.
type TimelineSpec struct {
	// Phases are the timed fault/degradation regimes, in chronological
	// order (the builder validates ordering and non-overlap).
	Phases []PhaseSpec `json:"phases"`
}

// PhaseSpec is one phase of the timeline block. Bounds are minutes of
// virtual time since campaign start; the effects are timeline.Effects
// under their own JSON keys, each optional, its zero value meaning
// "unchanged" (factors use 0, not 1, as neutral — the same convention
// the scenario spec uses for its knobs).
type PhaseSpec struct {
	Name        string  `json:"name"`
	StartMin    float64 `json:"start_min"`
	DurationMin float64 `json:"duration_min"`
	timeline.Effects
}

// Build converts the spec block into a validated timeline.Timeline.
func (t *TimelineSpec) Build() (timeline.Timeline, error) {
	var tl timeline.Timeline
	if t == nil {
		return tl, nil
	}
	for _, p := range t.Phases {
		eff := p.Effects
		eff.PoPDown = append([]int(nil), p.PoPDown...)
		tl.Phases = append(tl.Phases, timeline.Phase{
			Name:    p.Name,
			StartMS: p.StartMin * 60 * 1000,
			EndMS:   (p.StartMin + p.DurationMin) * 60 * 1000,
			Effects: eff,
		})
	}
	if err := tl.Validate(); err != nil {
		return timeline.Timeline{}, fmt.Errorf("timeline block: %w", err)
	}
	return tl, nil
}
