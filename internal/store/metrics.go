// metrics.go is the extractor registry: the pipeline that reduces a
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

// Quantiles are the per-sketch quantile levels the default registry
// extracts, published as "<sketch>_p50" … "<sketch>_p99".
var Quantiles = []float64{0.50, 0.90, 0.95, 0.99}

// QuantileMetric names the extracted metric for one sketch and level,
// e.g. QuantileMetric("startup_ms", 0.95) = "startup_ms_p95".
func QuantileMetric(sketch string, q float64) string {
	return fmt.Sprintf("%s_p%d", sketch, int(math.Round(q*100)))
}

// Derived ratio metrics the default registry publishes alongside the
// raw counters.
const (
	// MetricHitRatio is chunks_hit / chunks.
	MetricHitRatio = "hit_ratio"
	// MetricRetryShare is chunks_retry_timer / chunks.
	MetricRetryShare = "retry_share"
	// DiagSharePrefix + <label> is sessions_diag=<label> / sessions, one
	// metric per diagnosis cause present in the snapshot.
	DiagSharePrefix = "diag_share_"
)

// Extractor folds metrics extracted from one snapshot into out. An
// extractor must be a pure function of the snapshot so that ingesting
// the same snapshot always produces the same metrics.
type Extractor func(sn *telemetry.Snapshot, out map[string]float64)

// Registry is an ordered list of named extractors. Later extractors
// see (and may overwrite) earlier ones' keys; registration order is
// the only order that matters, so extraction is deterministic.
type Registry struct {
	names []string
	fns   []Extractor
}

// Register appends an extractor under a diagnostic name. Registering a
// name twice replaces the earlier extractor in place, keeping its
// position.
func (r *Registry) Register(name string, fn Extractor) {
	for i, n := range r.names {
		if n == name {
			r.fns[i] = fn
			return
		}
	}
	r.names = append(r.names, name)
	r.fns = append(r.fns, fn)
}

// Names lists the registered extractors in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// Extract runs every extractor over the snapshot and returns the
// merged metric map.
func (r *Registry) Extract(sn *telemetry.Snapshot) map[string]float64 {
	out := make(map[string]float64)
	for _, fn := range r.fns {
		fn(sn, out)
	}
	return out
}

// DefaultRegistry builds the standard extractor pipeline:
//
//   - counters: every snapshot counter verbatim (sessions, chunks,
//     chunks_hit, sessions_diag=<label>, sessions_window=<name>, …)
//   - ratios: hit_ratio and retry_share over the chunk counters
//   - quantiles: p50/p90/p95/p99 of every sketch, named
//     "<sketch>_p<level>"; empty sketches contribute nothing
//   - diag-shares: diag_share_<label> per diagnosis cause, the fraction
//     of sessions attributed to that cause
func DefaultRegistry() *Registry {
	r := &Registry{}
	r.Register("counters", extractCounters)
	r.Register("ratios", extractRatios)
	r.Register("quantiles", extractQuantiles)
	r.Register("diag-shares", extractDiagShares)
	return r
}

func extractCounters(sn *telemetry.Snapshot, out map[string]float64) {
	for name, v := range sn.Counters {
		out[name] = float64(v)
	}
}

func extractRatios(sn *telemetry.Snapshot, out map[string]float64) {
	chunks := sn.Counter(telemetry.CounterChunks)
	if chunks == 0 {
		return
	}
	out[MetricHitRatio] = float64(sn.Counter(telemetry.CounterChunksHit)) / float64(chunks)
	out[MetricRetryShare] = float64(sn.Counter(telemetry.CounterChunksRetryTimer)) / float64(chunks)
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
