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

// CounterSessionsUnwindowed counts sessions whose arrival fell outside
// every timeline window — always zero when the windows span the arrival
// window; non-zero breaks the -windows coverage check.
const CounterSessionsUnwindowed = "sessions_unwindowed"

// windowFamily charges every consumed session to the window containing
// its arrival time.
type windowFamily struct {
	windows []timeline.Window
	counts  map[counterKey]uint64
	fam     counterFamily
	qoe     []QuantileSketch // one trio per window, in window order
	diag    *diagFamily      // nil unless diagnosis labels the sessions too
}

// appendWindowNames appends the names of the per-window sketches, one
// QoE trio per window.
func appendWindowNames(names []string, ws []timeline.Window) []string {
	for _, w := range ws {
		names = appendQoENames(names, func(base string) string { return WindowSketchKey(base, w.Name) })
	}
	return names
}

// newWindowFamily keeps the per-window sketches of every window, empty
// or not, in qoe (named by appendWindowNames). ws is the shape's window
// list, shared read-only by every accumulator of the shape.
func newWindowFamily(a *Accumulator, ws []timeline.Window, diag *diagFamily, qoe []QuantileSketch) *windowFamily {
	return &windowFamily{windows: ws, counts: a.counts, fam: a.nextFamily(), qoe: qoe, diag: diag}
}

// consume charges one finished session to its arrival window. Its
// counters key on the window index, plus the label for cause counters.
func (f *windowFamily) consume(s core.SessionRecord, _ []core.ChunkRecord) {
	i := timeline.WindowAt(f.windows, s.ArrivalMS)
	if i < 0 {
		// Arrivals outside every window (possible only if the windows do
		// not span the arrival window) are counted so the coverage
		// invariant surfaces the gap instead of hiding it.
		f.counts[plainKey(CounterSessionsUnwindowed)]++
		return
	}
	f.counts[counterKey{fam: f.fam, num: i}]++
	qoeAt(f.qoe, i).add(&s)
	if f.diag != nil {
		f.counts[counterKey{fam: f.fam, num: i, str: string(f.diag.label)}]++
	}
}

func (f *windowFamily) counterName(k counterKey) string {
	if k.str == "" {
		return WindowSessionsKey(f.windows[k.num].Name)
	}
	return WindowDiagSessionsKey(f.windows[k.num].Name, k.str)
}

func (f *windowFamily) annotate(sn *Snapshot) { sn.Windows = f.windows }
