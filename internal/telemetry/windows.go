// windows.go folds timeline windows (internal/timeline) into the
// streaming aggregates: every finished session is charged — by its
// arrival time — to one window of the campaign's event timeline, with a
// per-window session counter, per-window QoE sketches (startup,
// re-buffering ratio, average bitrate), and, when diagnosis is also
// enabled, per-window per-label cause counters. cmd/analyze -windows
// renders the before/during/after tables from this state, which is how a
// fault-injection campaign shows QoE degrading inside a phase and
// recovering afterwards without ever materializing a record.
package telemetry

import (
	"vidperf/internal/core"
	"vidperf/internal/timeline"
)

// WindowDim is the dimension name windowed counters and sketches key on.
const WindowDim = "window"

// WindowSessionsKey returns the session counter key for one window,
// "sessions_window=<name>".
func WindowSessionsKey(name string) string {
	return DimKey(CounterSessions, WindowDim, name)
}

// WindowSketchKey returns the per-window sketch name for one base
// metric, e.g. WindowSketchKey(MetricStartupMS, "w01-outage") =
// "startup_ms_window=w01-outage".
func WindowSketchKey(base, name string) string {
	return DimKey(base, WindowDim, name)
}

// WindowDiagSessionsKey returns the two-dimensional cause counter key
// "sessions_window=<name>_diag=<label>" — parseable by CountersByDim
// with base "sessions_window=<name>" and dimension "diag".
func WindowDiagSessionsKey(window, label string) string {
	return DimKey(WindowSessionsKey(window), DiagDim, label)
}

// enableWindows switches the accumulator into windowed mode: every
// consumed session is charged to the window containing its arrival time.
// Call before the first ConsumeSession; per-window sketches are created
// eagerly so empty windows still merge and snapshot deterministically.
func (a *Accumulator) enableWindows(ws []timeline.Window) {
	if len(ws) == 0 {
		return
	}
	a.windows = append([]timeline.Window(nil), ws...)
	a.windowQoE = make([]qoeSketches, len(a.windows))
	for i, w := range a.windows {
		a.windowQoE[i] = a.addQoE(func(base string) string { return WindowSketchKey(base, w.Name) })
	}
}

// consumeWindow charges one finished session to its arrival window.
func (a *Accumulator) consumeWindow(s *core.SessionRecord, diagLabel string) {
	i := timeline.WindowAt(a.windows, s.ArrivalMS)
	if i < 0 {
		// Arrivals outside every window (possible only if the windows do
		// not span the arrival window) are counted so the coverage
		// invariant surfaces the gap instead of hiding it.
		a.counts[plainKey(CounterSessionsUnwindowed)]++
		return
	}
	a.counts[counterKey{fam: famSessionsWindow, num: i}]++
	a.windowQoE[i].add(s)
	if diagLabel != "" {
		a.counts[counterKey{fam: famSessionsWindowDiag, num: i, str: diagLabel}]++
	}
}
