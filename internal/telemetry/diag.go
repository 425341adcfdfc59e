// diag.go folds per-session root-cause diagnosis (internal/diagnose)
// into the streaming aggregates: one label-dimensioned session counter
// ("sessions_diag=<label>") and three per-label QoE sketches (startup,
// re-buffering ratio, average bitrate), so campaigns can report not only
// how QoE is distributed but which layer hurt the degraded sessions —
// without ever materializing a record.
package telemetry

import (
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

// diagSlot returns the label's position in diagLabels.
func diagSlot(l diagnose.Label) int {
	for i, x := range diagLabels {
		if x == l {
			return i
		}
	}
	panic("telemetry: unknown diagnosis label " + string(l))
}

// enableDiagnosis switches the accumulator into diagnosis mode: every
// consumed session is classified and folded into the per-label state.
// Call before the first ConsumeSession; the per-label sketches are
// created eagerly so empty labels still merge and snapshot
// deterministically.
func (a *Accumulator) enableDiagnosis(cfg diagnose.Config) {
	c := cfg.WithDefaults()
	a.diag = &c
	a.diagQoE = make([]qoeSketches, len(diagLabels))
	for i, l := range diagLabels {
		a.diagQoE[i] = a.addQoE(func(base string) string { return DiagSketchKey(base, l) })
	}
}

// consumeDiagnosis classifies one finished session, folds its QoE into
// the label's counters and sketches, and returns the label so windowed
// mode can cross it with the session's arrival window.
func (a *Accumulator) consumeDiagnosis(s *core.SessionRecord, chunks []core.ChunkRecord) string {
	label := diagnose.Classify(*s, chunks, *a.diag).Label
	a.counts[counterKey{fam: famSessionsDiag, str: string(label)}]++
	a.diagQoE[diagSlot(label)].add(s)
	return string(label)
}
