// metrics.go is the metric extraction: the pipeline that reduces a
// telemetry.Snapshot to the flat scalar metrics the store indexes and
// the query layer ranks by.
package store

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vidperf/internal/telemetry"
)

// Quantiles are the per-sketch quantile levels extraction publishes, published as "<sketch>_p50" … "<sketch>_p99".
var Quantiles = []float64{0.50, 0.90, 0.95, 0.99}

// QuantileMetric names the extracted metric for one sketch and level,
// e.g. QuantileMetric("startup_ms", 0.95) = "startup_ms_p95".
func QuantileMetric(sketch string, q float64) string {
	return fmt.Sprintf("%s_p%d", sketch, int(math.Round(q*100)))
}

// Derived ratio metrics extraction publishes alongside the raw
// counters.
const (
	// MetricHitRatio is chunks_hit / chunks.
	MetricHitRatio = "hit_ratio"
	// MetricRetryShare is chunks_retry_timer / chunks.
	MetricRetryShare = "retry_share"
	// DiagSharePrefix + <label> is sessions_diag=<label> / sessions, one
	// metric per diagnosis cause present in the snapshot.
	DiagSharePrefix = "diag_share_"
)

// extract reduces a snapshot to the store's scalar metrics:
//
//   - counters: every snapshot counter verbatim (sessions, chunks,
//     chunks_hit, sessions_diag=<label>, sessions_window=<name>, …)
//   - ratios: hit_ratio and retry_share over the chunk counters
//   - quantiles: p50/p90/p95/p99 of every sketch, named
//     "<sketch>_p<level>"; empty sketches contribute nothing
//   - diag-shares: diag_share_<label> per diagnosis cause, the fraction
//     of sessions attributed to that cause
//
// Each extractor is a pure function of the snapshot, and they run in
// this order, so ingesting the same snapshot always yields the same
// metrics.
func extract(sn *telemetry.Snapshot) map[string]float64 {
	out := make(map[string]float64)
	for _, fn := range []func(*telemetry.Snapshot, map[string]float64){
		extractCounters, extractRatios, extractQuantiles, extractDiagShares,
	} {
		fn(sn, out)
	}
	return out
}

func extractCounters(sn *telemetry.Snapshot, out map[string]float64) {
	for name, v := range sn.Counters {
		out[name] = float64(v)
	}
}

func extractRatios(sn *telemetry.Snapshot, out map[string]float64) {
	if sn.Counter(telemetry.CounterChunks) == 0 {
		return
	}
	out[MetricHitRatio] = sn.ChunkShare(telemetry.CounterChunksHit)
	out[MetricRetryShare] = sn.ChunkShare(telemetry.CounterChunksRetryTimer)
}

func extractQuantiles(sn *telemetry.Snapshot, out map[string]float64) {
	names := make([]string, 0, len(sn.Sketches))
	for name := range sn.Sketches {
		names = append(names, name)
	}
	sort.Strings(names)
	vals := make([]float64, len(Quantiles))
	for _, name := range names {
		sk := sn.Sketch(name)
		if sk.N() == 0 {
			continue
		}
		sk.Quantiles(Quantiles, vals)
		for i, q := range Quantiles {
			out[QuantileMetric(name, q)] = vals[i]
		}
	}
}

// extractDiagShares derives cause shares from the dimensioned session
// counters, so it needs no knowledge of the diagnosis label set — any
// "sessions_diag=<label>" counter yields a "diag_share_<label>" metric.
func extractDiagShares(sn *telemetry.Snapshot, out map[string]float64) {
	sessions := sn.Counter(telemetry.CounterSessions)
	if sessions == 0 {
		return
	}
	prefix := telemetry.CounterSessions + "_" + telemetry.DiagDim + "="
	for name, v := range sn.Counters {
		if label, ok := strings.CutPrefix(name, prefix); ok {
			out[DiagSharePrefix+label] = float64(v) / float64(sessions)
		}
	}
}
