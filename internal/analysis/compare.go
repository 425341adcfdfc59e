// compare.go computes A/B deltas between two telemetry snapshots: the
// quantile shifts of every shared sketch metric and the movements of the
// scalar counters (plus derived rates). It is the analysis behind
// cmd/analyze -compare and the per-cell delta report the experiment
// campaign runner prints against its baseline cell.
package analysis

import (
	"math"
	"sort"
	"strings"

	"vidperf/internal/telemetry"
)

// CompareQuantiles are the quantiles every metric delta reports.
var CompareQuantiles = []float64{0.50, 0.90, 0.99}

// QuantileDelta is one quantile of one metric in both snapshots.
type QuantileDelta struct {
	Q        float64
	A, B     float64
	Delta    float64 // B - A (NaN when either side is empty)
	RelDelta float64 // Delta / |A| (NaN when A is 0 or either side empty)
}

// MetricDelta is the sketch-level comparison of one metric.
type MetricDelta struct {
	Name      string
	NA, NB    uint64 // sample counts
	Quantiles []QuantileDelta
}

// CounterDelta is one scalar counter in both snapshots.
type CounterDelta struct {
	Name     string
	A, B     uint64
	Delta    int64
	RelDelta float64 // Delta / A (NaN when A is 0)
}

// RateDelta is a derived ratio (hit ratio, retry share, …) in both
// snapshots.
type RateDelta struct {
	Name  string
	A, B  float64
	Delta float64
}

// SnapshotComparison is the full A/B delta report.
type SnapshotComparison struct {
	LabelsA, LabelsB map[string]string
	Metrics          []MetricDelta  // shared sketch metrics, sorted by name
	Counters         []CounterDelta // scalar (un-dimensioned) counters, sorted by name
	Rates            []RateDelta    // derived ratios
}

// CompareSnapshots diffs candidate b against baseline a. Sketch metrics
// present in only one snapshot are skipped (they have no comparable
// distribution); counters missing on one side compare against zero, and
// dimensioned counters (keys containing "=") are left to the mix tables.
func CompareSnapshots(a, b *telemetry.Snapshot) SnapshotComparison {
	out := SnapshotComparison{LabelsA: a.Labels, LabelsB: b.Labels}

	names := make([]string, 0, len(a.Sketches))
	for name := range a.Sketches {
		if _, ok := b.Sketches[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		sa, sb := a.Sketch(name), b.Sketch(name)
		md := MetricDelta{Name: name, NA: sa.N(), NB: sb.N()}
		qas, qbs := make([]float64, len(CompareQuantiles)), make([]float64, len(CompareQuantiles))
		sa.Quantiles(CompareQuantiles, qas)
		sb.Quantiles(CompareQuantiles, qbs)
		for i, q := range CompareQuantiles {
			qa, qb := qas[i], qbs[i]
			d := QuantileDelta{Q: q, A: qa, B: qb, Delta: qb - qa, RelDelta: math.NaN()}
			if !math.IsNaN(d.Delta) && qa != 0 {
				d.RelDelta = d.Delta / math.Abs(qa)
			}
			md.Quantiles = append(md.Quantiles, d)
		}
		out.Metrics = append(out.Metrics, md)
	}

	ctrs := map[string]bool{}
	for name := range a.Counters {
		ctrs[name] = true
	}
	for name := range b.Counters {
		ctrs[name] = true
	}
	cnames := make([]string, 0, len(ctrs))
	for name := range ctrs {
		if !strings.Contains(name, "=") {
			cnames = append(cnames, name)
		}
	}
	sort.Strings(cnames)
	for _, name := range cnames {
		ca, cb := a.Counter(name), b.Counter(name)
		cd := CounterDelta{Name: name, A: ca, B: cb, Delta: int64(cb) - int64(ca), RelDelta: math.NaN()}
		if ca != 0 {
			cd.RelDelta = float64(cd.Delta) / float64(ca)
		}
		out.Counters = append(out.Counters, cd)
	}

	out.Rates = append(out.Rates,
		rateDelta("cache_hit_ratio", a, b, telemetry.CounterChunksHit, telemetry.CounterChunks),
		rateDelta("retry_timer_share", a, b, telemetry.CounterChunksRetryTimer, telemetry.CounterChunks),
		rateDelta("never_started_share", a, b, telemetry.CounterSessionsNeverStart, telemetry.CounterSessions),
	)

	// Window-share deltas: when both sides carry the same timeline
	// windows, diff each window's share of arrivals (a flash-crowd axis
	// shows up here as mass moving into the surge window; the per-window
	// QoE quantile shifts are already covered by the sketch metrics
	// above, whose names carry the window dimension).
	wa, wb := StreamWindows(a), StreamWindows(b)
	if wa.Enabled() && wb.Enabled() && len(wa.Rows) == len(wb.Rows) {
		for i, ra := range wa.Rows {
			rb := wb.Rows[i]
			if ra.Window.Name != rb.Window.Name {
				continue
			}
			out.Rates = append(out.Rates, RateDelta{
				Name:  "window_share_" + ra.Window.Name,
				A:     ra.Share,
				B:     rb.Share,
				Delta: rb.Share - ra.Share,
			})
		}
	}

	// Cause-share deltas: when either side carries diagnosis labels, diff
	// every label's share of sessions, so A/B campaign cells can report
	// which layer a knob change moved sessions into (flash-crowd cells
	// shifting from healthy to cache-miss-fetch, for instance).
	da, db := StreamDiagnosis(a), StreamDiagnosis(b)
	if da.Enabled() || db.Enabled() {
		for i, ra := range da.Rows {
			rb := db.Rows[i]
			out.Rates = append(out.Rates, RateDelta{
				Name:  "diag_share_" + string(ra.Label),
				A:     ra.Share,
				B:     rb.Share,
				Delta: rb.Share - ra.Share,
			})
		}
	}
	return out
}

func rateDelta(name string, a, b *telemetry.Snapshot, num, den string) RateDelta {
	return RateDelta{
		Name:  name,
		A:     ratio(a.Counter(num), a.Counter(den)),
		B:     ratio(b.Counter(num), b.Counter(den)),
		Delta: ratio(b.Counter(num), b.Counter(den)) - ratio(a.Counter(num), a.Counter(den)),
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return float64(num) / float64(den)
}
