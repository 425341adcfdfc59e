// diag.go folds per-session root-cause diagnosis (internal/diagnose)
// into the streaming aggregates: one label-dimensioned session counter
// ("sessions_diag=<label>") and three per-label QoE sketches (startup,
// re-buffering ratio, average bitrate), so campaigns can report not only
// how QoE is distributed but which layer hurt the degraded sessions —
// without ever materializing a record.
package telemetry

import (
	"slices"

	"vidperf/internal/core"
	"vidperf/internal/diagnose"
)

// MetricAvgBitrateKbps is the base name of the per-label average-bitrate
// sketches ("avg_bitrate_kbps_diag=<label>"). There is no undimensioned
// sketch of this name; it exists only under the diag dimension.
const MetricAvgBitrateKbps = "avg_bitrate_kbps"

// DiagDim is the dimension name diagnosis counters and sketches key on.
const DiagDim = "diag"

// DiagSessionsKey returns the session counter key for one label,
// "sessions_diag=<label>".
func DiagSessionsKey(label diagnose.Label) string {
	return DimKey(CounterSessions, DiagDim, string(label))
}

// DiagSketchKey returns the per-label sketch name for one base metric,
// e.g. DiagSketchKey(MetricStartupMS, diagnose.Healthy) =
// "startup_ms_diag=healthy".
func DiagSketchKey(base string, label diagnose.Label) string {
	return DimKey(base, DiagDim, string(label))
}

// diagLabels is the canonical label order; a label's position is its
// sketch slot.
var diagLabels = diagnose.Labels()

// diagFamily classifies every consumed session and folds it into the
// per-label state.
type diagFamily struct {
	cfg    diagnose.Config
	counts map[counterKey]uint64
	fam    counterFamily
	qoe    []QuantileSketch // one trio per label, in diagLabels order
	// label is the label of the session consumed last, which the windows
	// family crosses with the session's arrival window.
	label diagnose.Label
}

// appendDiagNames appends the names of the per-label sketches, one QoE
// trio per label.
func appendDiagNames(names []string) []string {
	for _, l := range diagLabels {
		names = appendQoENames(names, func(base string) string { return DiagSketchKey(base, l) })
	}
	return names
}

// newDiagFamily keeps the per-label sketches of every label, empty or
// not, in qoe (named by appendDiagNames).
func newDiagFamily(a *Accumulator, cfg diagnose.Config, qoe []QuantileSketch) *diagFamily {
	return &diagFamily{cfg: cfg, counts: a.counts, fam: a.nextFamily(), qoe: qoe}
}

func (f *diagFamily) consume(s core.SessionRecord, chunks []core.ChunkRecord) {
	f.label = diagnose.Classify(s, chunks, f.cfg).Label
	f.counts[counterKey{fam: f.fam, str: string(f.label)}]++
	qoeAt(f.qoe, slices.Index(diagLabels, f.label)).add(&s)
}

func (f *diagFamily) counterName(k counterKey) string {
	return DiagSessionsKey(diagnose.Label(k.str))
}

func (f *diagFamily) annotate(*Snapshot) {}
