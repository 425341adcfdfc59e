// prom.go renders the engine state in the Prometheus text exposition
// format (version 0.0.4), hand-rolled on the standard library: HELP and
// TYPE lines per family, escaped label values, one sample per line. The
// write order is a fixed code path, so two scrapes of the same state are
// byte-identical — /metrics inherits the repo's determinism posture even
// though nothing in CI diffs scrapes.
package serve

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"

	"vidperf/internal/diagnose"
	"vidperf/internal/telemetry"
)

// summaryQuantiles are the per-distribution quantiles /metrics exposes.
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

// writeMetrics renders every metric family. The cumulative counters
// cover closed windows only; the live-window gauges cover the in-flight
// window, so their sum is the instantaneous total.
func (e *Engine) writeMetrics(w io.Writer) {
	e.mu.RLock()
	cum := e.cum
	done := e.done
	virtualMS := e.virtualMS
	lastRate := e.lastRate
	diagOn := e.cfg.Diagnose
	e.mu.RUnlock()

	counter := func(name string) uint64 {
		if cum == nil {
			return 0
		}
		return cum.Counter(name)
	}

	writeFamily(w, "vodsim_windows_completed_total", "counter",
		"Service windows closed since virtual time zero (checkpoint-resumed windows included).")
	writeSample(w, "vodsim_windows_completed_total", nil, float64(done))

	writeFamily(w, "vodsim_virtual_ms", "gauge",
		"Virtual-clock time covered by the closed windows, in milliseconds.")
	writeSample(w, "vodsim_virtual_ms", nil, virtualMS)

	writeFamily(w, "vodsim_sessions_total", "counter", "Sessions finished in closed windows.")
	writeSample(w, "vodsim_sessions_total", nil, float64(counter(telemetry.CounterSessions)))

	writeFamily(w, "vodsim_sessions_never_started_total", "counter",
		"Sessions that abandoned before playback started.")
	writeSample(w, "vodsim_sessions_never_started_total", nil,
		float64(counter(telemetry.CounterSessionsNeverStart)))

	writeFamily(w, "vodsim_chunks_total", "counter", "Chunk requests served in closed windows.")
	writeSample(w, "vodsim_chunks_total", nil, float64(counter(telemetry.CounterChunks)))

	writeFamily(w, "vodsim_chunks_hit_total", "counter", "Chunk requests served from CDN cache.")
	writeSample(w, "vodsim_chunks_hit_total", nil, float64(counter(telemetry.CounterChunksHit)))

	writeFamily(w, "vodsim_chunks_retry_timer_total", "counter",
		"Chunk requests that hit the client retry timer.")
	writeSample(w, "vodsim_chunks_retry_timer_total", nil,
		float64(counter(telemetry.CounterChunksRetryTimer)))

	writeFamily(w, "vodsim_cache_hit_ratio", "gauge",
		"Cumulative CDN cache hit ratio over closed windows.")
	hitRatio := 0.0
	if cum != nil {
		hitRatio = cum.ChunkShare(telemetry.CounterChunksHit)
	}
	writeSample(w, "vodsim_cache_hit_ratio", nil, hitRatio)

	if cum != nil {
		writeSummary(w, "vodsim_startup_ms",
			"Session startup delay in milliseconds (started sessions only).",
			cum.Sketch(telemetry.MetricStartupMS))
		writeSummary(w, "vodsim_rebuffer_rate",
			"Per-session fraction of playback time spent stalled.",
			cum.Sketch(telemetry.MetricRebufferRate))
	}

	if diagOn {
		writeFamily(w, "vodsim_sessions_diag_total", "counter",
			"Sessions per diagnosis label (internal/diagnose).")
		for _, l := range diagnose.Labels() {
			writeSample(w, "vodsim_sessions_diag_total",
				[][2]string{{"label", string(l)}},
				float64(counter(telemetry.DiagSessionsKey(l))))
		}
	}

	writeFamily(w, "vodsim_live_window_sessions", "gauge",
		"Sessions finished so far in the in-flight window.")
	writeSample(w, "vodsim_live_window_sessions", nil, float64(e.live.Sessions.Load()))

	writeFamily(w, "vodsim_live_window_chunks", "gauge",
		"Chunk records emitted so far in the in-flight window.")
	writeSample(w, "vodsim_live_window_chunks", nil, float64(e.live.Chunks.Load()))

	writeFamily(w, "vodsim_shard_queue_depth", "gauge",
		"Planned shards of the in-flight window not yet drained.")
	writeSample(w, "vodsim_shard_queue_depth", nil, float64(e.live.QueueDepth()))

	writeFamily(w, "vodsim_records_per_second", "gauge",
		"Chunk records per wall-clock second over the last closed window.")
	writeSample(w, "vodsim_records_per_second", nil, lastRate)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeFamily(w, "vodsim_goroutines", "gauge", "Goroutines in the serve process.")
	writeSample(w, "vodsim_goroutines", nil, float64(runtime.NumGoroutine()))
	writeFamily(w, "vodsim_heap_alloc_bytes", "gauge", "Live heap bytes (runtime.MemStats.HeapAlloc).")
	writeSample(w, "vodsim_heap_alloc_bytes", nil, float64(ms.HeapAlloc))
}

// writeSummary renders one distribution as a Prometheus summary:
// quantile-labelled samples, _sum and _count, all from the sketch.
// Quantile samples are skipped while the distribution is empty so the
// exposition never carries NaN.
func writeSummary(w io.Writer, name, help string, sk *telemetry.QuantileSketch) {
	writeFamily(w, name, "summary", help)
	if sk.N() > 0 {
		vals := make([]float64, len(summaryQuantiles))
		sk.Quantiles(summaryQuantiles, vals)
		for i, q := range summaryQuantiles {
			writeSample(w, name, [][2]string{{"quantile", fmt.Sprintf("%g", q)}}, vals[i])
		}
	}
	writeSample(w, name+"_sum", nil, sk.Sum())
	writeSample(w, name+"_count", nil, float64(sk.N()))
}

// writeFamily emits the HELP and TYPE lines for one metric family.
func writeFamily(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// writeSample emits one sample line, with labels when given.
func writeSample(w io.Writer, name string, labels [][2]string, v float64) {
	if len(labels) == 0 {
		fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
		return
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		// %q escapes backslash, quote, and newline — the three characters
		// the exposition format requires escaped in label values.
		parts[i] = fmt.Sprintf("%s=%q", l[0], l[1])
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, strings.Join(parts, ","), formatValue(v))
}

// formatValue renders a sample value; the exposition format spells
// specials as NaN/+Inf/-Inf (the writer avoids emitting them, but the
// formatter stays total).
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// escapeHelp escapes a HELP text (backslash and newline).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// nanToZero maps NaN to 0 for JSON reports (JSON has no NaN).
func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
