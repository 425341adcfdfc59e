// serve.go is the spec face of continuous service mode: a spec may carry
// a "serve" block that `vodsim serve -spec` maps onto internal/serve's
// engine configuration. The block is ignored by the batch campaign
// drivers (cmd/sweep, vodsim -spec) — it configures how the scenario is
// served, not what is simulated — but it travels with the spec so one
// file describes both the world and its service posture.
package experiment

import "vidperf/internal/serve"

// ServeSpec is the "serve" block: continuous-service knobs in
// campaign-friendly units. Zero fields take internal/serve's defaults
// (window length from the scenario's arrival window, sessions per window
// from the scenario's session count, ring 12), and serve.Config.Validate
// rejects negative ones.
type ServeSpec struct {
	// WindowMin is the virtual length of one service window, in minutes.
	WindowMin float64 `json:"window_min,omitempty"`
	// SessionsPerWindow is the number of sessions each window generates.
	SessionsPerWindow int `json:"sessions_per_window,omitempty"`
	// Ring is how many closed windows the /windows endpoint retains.
	Ring int `json:"ring,omitempty"`
	// Pace is the virtual-to-wall speed factor (0 = max speed).
	Pace float64 `json:"pace,omitempty"`
	// CheckpointEveryWindows writes a checkpoint after every n-th window
	// (0 = only on demand and at shutdown).
	CheckpointEveryWindows int `json:"checkpoint_every_windows,omitempty"`
}

// WindowMS returns the window length in milliseconds (0 when unset).
func (s *ServeSpec) WindowMS() float64 { return s.WindowMin * 60 * 1000 }

// ServeConfig is the serve engine configuration the spec describes for
// cell: the cell's scenario, the resolved sketch parameter, the
// diagnosis toggle, and the serve block's knobs, whose zero fields take
// the engine's defaults. The runtime fields (CheckpointPath,
// MaxWindows) are the caller's. serve.Config.Validate is the one range
// check of the result.
func (s *Spec) ServeConfig(cell Cell) serve.Config {
	var sv ServeSpec
	if s.Serve != nil {
		sv = *s.Serve
	}
	return serve.Config{
		Scenario:               cell.Scenario,
		SketchK:                s.EffectiveSketchK(),
		Diagnose:               s.Diagnosis,
		SessionsPerWindow:      sv.SessionsPerWindow,
		WindowMS:               sv.WindowMS(),
		Ring:                   sv.Ring,
		Pace:                   sv.Pace,
		CheckpointEveryWindows: sv.CheckpointEveryWindows,
	}
}
