package timeline

import "fmt"

// Window is one named segment of the arrival window, derived from the
// timeline's phase boundaries: the stretch before the first phase, each
// phase, the gaps between phases, and the stretch after the last one.
// Sessions are charged to the window containing their arrival time, which
// is what lets reports contrast QoE before/during/after an injected
// event. Names are key-safe (they appear inside telemetry counter keys)
// and carry a zero-padded index so lexicographic order equals time order.
type Window struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// Contains reports whether t falls inside the window's half-open span.
func (w Window) Contains(t float64) bool { return t >= w.StartMS && t < w.EndMS }

// windowName builds the canonical window name "w<idx>-<label>"; the
// two-digit index keeps sorted telemetry keys in time order (a timeline
// would need >50 phases to exceed 99 windows, far past any sane spec).
func windowName(idx int, label string) string {
	return fmt.Sprintf("w%02d-%s", idx, label)
}

// Windows cuts the arrival window [0, campaignMS) into named segments at
// the timeline's phase boundaries. Phases are clamped to the arrival
// window; phases entirely outside it produce no window (arrivals cannot
// land there). Gap segments are named "pre" before the first phase,
// "gap" between phases, and "post" after the last one. An empty timeline
// yields no windows at all — windowed telemetry stays off.
func (t Timeline) Windows(campaignMS float64) []Window {
	if t.Empty() || campaignMS <= 0 {
		return nil
	}
	var out []Window
	add := func(label string, start, end float64) {
		if end > start {
			out = append(out, Window{Name: windowName(len(out), label), StartMS: start, EndMS: end})
		}
	}
	cursor := 0.0
	first := true
	for _, p := range t.Phases {
		start, end := p.StartMS, p.EndMS
		if start >= campaignMS {
			break
		}
		if end > campaignMS {
			end = campaignMS
		}
		gapLabel := "gap"
		if first {
			gapLabel = "pre"
		}
		add(gapLabel, cursor, start)
		add(p.Name, start, end)
		cursor = end
		first = false
	}
	add("post", cursor, campaignMS)
	return out
}

// WindowAt returns the index in ws of the window containing t, or -1.
// ws must be the contiguous ascending output of Windows. The final
// window is treated as closed on the right so a float-rounding landing
// exactly on the campaign end still gets assigned (the coverage
// invariant — every session in exactly one window — must not hinge on
// ulp-level arithmetic).
func WindowAt(ws []Window, t float64) int {
	for i := range ws {
		if ws[i].Contains(t) {
			return i
		}
	}
	if n := len(ws); n > 0 && t >= ws[n-1].StartMS && t <= ws[n-1].EndMS {
		return n - 1
	}
	return -1
}

// ArrivalWarp is the precomputed arrival-rate transform of one timeline
// over one campaign window: the constant-rate segments and their total
// mass, built once and shared by every per-session warp (the planner
// warps twice per session — scheduling and arrival — so this sits on
// the hot path of million-session campaigns). A nil ArrivalWarp is the
// identity.
type ArrivalWarp struct {
	campaignMS float64
	segs       []rateSegment
	total      float64
}

// NewArrivalWarp precomputes the warp. It returns nil — the identity —
// for an empty timeline, a degenerate window, or a timeline with no
// rate mass, so callers can cheaply skip the transform.
func (t Timeline) NewArrivalWarp(campaignMS float64) *ArrivalWarp {
	if t.Empty() || campaignMS <= 0 {
		return nil
	}
	w := &ArrivalWarp{campaignMS: campaignMS, segs: t.rateSegments(campaignMS)}
	for _, s := range w.segs {
		w.total += s.rate * (s.end - s.start)
	}
	if w.total <= 0 {
		return nil
	}
	return w
}

// At maps one nominal uniform draw through the precomputed warp.
func (w *ArrivalWarp) At(u float64) float64 {
	if w == nil {
		return u
	}
	// Target cumulative mass, proportional to the nominal position.
	target := u / w.campaignMS * w.total
	var acc float64
	for _, s := range w.segs {
		m := s.rate * (s.end - s.start)
		if acc+m >= target && s.rate > 0 {
			at := s.start + (target-acc)/s.rate
			if at >= s.end { // guard float round-up at segment edges
				at = s.end
			}
			return at
		}
		acc += m
	}
	return w.campaignMS
}

// rateSegment is one constant-rate stretch of the arrival window.
type rateSegment struct {
	start, end, rate float64
}

// rateSegments builds the piecewise-constant rate function over
// [0, campaignMS): factor-1 gaps interleaved with the phases' arrival
// factors, phases clamped to the window.
func (t Timeline) rateSegments(campaignMS float64) []rateSegment {
	var segs []rateSegment
	add := func(start, end, rate float64) {
		if end > start {
			segs = append(segs, rateSegment{start: start, end: end, rate: rate})
		}
	}
	cursor := 0.0
	for _, p := range t.Phases {
		start, end := p.StartMS, p.EndMS
		if start >= campaignMS {
			break
		}
		if end > campaignMS {
			end = campaignMS
		}
		add(cursor, start, 1)
		add(start, end, p.Effects.ArrivalRate())
		cursor = end
	}
	add(cursor, campaignMS, 1)
	return segs
}
