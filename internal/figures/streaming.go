// streaming.go renders the sketch-backed figures: the subset of the
// paper's evaluation that survives one-pass aggregation, computed from a
// telemetry.Snapshot instead of a materialized dataset. cmd/analyze
// -snapshot renders these for campaigns too large to ever hold as
// records.
package figures

import (
	"fmt"

	"vidperf/internal/analysis"
	"vidperf/internal/telemetry"
)

// sketchLineQuantiles are the columns sketchLine renders.
var sketchLineQuantiles = []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99}

// sketchLine renders a quantile sketch as the same quantile columns
// cdfLine uses for exact ECDFs.
func sketchLine(label string, s *telemetry.QuantileSketch) string {
	if s == nil || s.N() == 0 {
		return fmt.Sprintf("%-22s (no samples)", label)
	}
	var q [6]float64
	s.Quantiles(sketchLineQuantiles, q[:])
	return fmt.Sprintf("%-22s n=%-7d p10=%-9.3g p25=%-9.3g p50=%-9.3g p75=%-9.3g p90=%-9.3g p99=%-9.3g",
		label, s.N(), q[0], q[1], q[2], q[3], q[4], q[5])
}

// StreamCDN is the sketch-backed Fig. 5: the CDN latency breakdown with
// the same shape checks, within sketch error.
func StreamCDN(sn *telemetry.Snapshot) Result {
	br := analysis.StreamBreakdownCDNLatency(sn)
	r := Result{
		ID:    "stream-cdn",
		Title: "CDN latency breakdown (streaming sketches)",
		Paper: "Dwait/Dopen sub-ms; Dread bimodal (~10 ms retry-timer gap); median hit ≪ miss (40x)",
		Measured: fmt.Sprintf("median hit=%.1f ms miss=%.1f ms (%.0fx); retry-timer share=%s",
			br.MedianHitMS, br.MedianMissMS, br.MedianMissMS/br.MedianHitMS,
			pct(br.RetryTimerChunkShare)),
	}
	r.Lines = append(r.Lines,
		sketchLine("Dwait (ms)", br.Dwait),
		sketchLine("Dopen (ms)", br.Dopen),
		sketchLine("Dread (ms)", br.Dread),
		sketchLine("total server, hit", br.TotalHit),
		sketchLine("total server, miss", br.TotalMiss),
	)
	r.Pass = br.TotalHit.N() > 0 && br.TotalMiss.N() > 0 &&
		br.MedianMissMS/br.MedianHitMS > 10 &&
		br.Dread.Quantile(0.95) > 10 && br.Dread.Quantile(0.5) < 10
	return r
}

// StreamQoE renders the per-session QoE distributions from sketches.
func StreamQoE(sn *telemetry.Snapshot) Result {
	q := analysis.StreamQoESummary(sn)
	lat := analysis.StreamLatencyDistributions(sn)
	r := Result{
		ID:    "stream-qoe",
		Title: "Session QoE and chunk latency distributions (streaming sketches)",
		Paper: "startup concentrated near the buffering threshold; re-buffering rare; D_LB dominates D_FB",
		Measured: fmt.Sprintf("sessions=%d never-started=%s; startup p50=%.2f s; rebuf p90=%s",
			q.Sessions, pct(q.NeverStartedShare),
			q.Startup.Quantile(0.5)/1000, pct(q.RebufferRate.Quantile(0.9))),
	}
	r.Lines = append(r.Lines,
		sketchLine("startup (ms)", q.Startup),
		sketchLine("rebuffer rate", q.RebufferRate),
		sketchLine("D_FB (ms)", lat.DFB),
		sketchLine("D_LB (ms)", lat.DLB),
		sketchLine("srtt (ms)", lat.SRTT),
		sketchLine("server latency (ms)", lat.Server),
	)
	r.Pass = q.Sessions > 0 && q.NeverStartedShare < 0.1 &&
		q.Startup.Quantile(0.5) > 100 && q.Startup.Quantile(0.5) < 10000 &&
		lat.DLB.Quantile(0.5) > lat.DFB.Quantile(0.5)
	return r
}

// StreamMix renders the dimensioned-counter tables: hit ratio by PoP and
// cache level, the bitrate ladder mix, and sessions by org type. These
// are exact counts even in streaming mode.
func StreamMix(sn *telemetry.Snapshot) Result {
	mix := analysis.StreamHitRatios(sn)
	r := Result{
		ID:    "stream-mix",
		Title: "Cache hit ratio and traffic mix by dimension (streaming counters)",
		Paper: "high steady-state hit ratio at every PoP; RAM serves most hits; ladder spans 235–3000 kbps",
		Measured: fmt.Sprintf("chunks=%d hit ratio=%s across %d PoPs, %d ladder rungs",
			mix.Chunks, pct(mix.Overall), len(mix.ByPoP), len(mix.Bitrates)),
	}
	r.Lines = append(r.Lines, fmt.Sprintf("%-10s %10s %10s %10s", "pop", "chunks", "hits", "hit %"))
	for _, row := range mix.ByPoP {
		r.Lines = append(r.Lines, fmt.Sprintf("%-10d %10d %10d %10.2f",
			row.PoP, row.Chunks, row.Hits, 100*row.HitRatio))
	}
	for _, d := range mix.ByLevel {
		r.Lines = append(r.Lines, fmt.Sprintf("cache=%-8s %10d chunks", d.Value, d.N))
	}
	for _, d := range mix.Bitrates {
		r.Lines = append(r.Lines, fmt.Sprintf("bitrate=%-6d %8d chunks", d.IntValue(), d.N))
	}
	for _, d := range mix.Orgs {
		r.Lines = append(r.Lines, fmt.Sprintf("org=%-12s %8d sessions", d.Value, d.N))
	}
	minPoPHit := 1.0
	for _, row := range mix.ByPoP {
		if row.HitRatio < minPoPHit {
			minPoPHit = row.HitRatio
		}
	}
	r.Pass = mix.Chunks > 0 && mix.Overall > 0.5 && mix.Overall < 1 &&
		len(mix.ByPoP) > 1 && minPoPHit > 0.3 && len(mix.Bitrates) >= 3
	return r
}

// StreamDiagnosis renders the per-session root-cause report: the share
// of sessions charged to each layer label (internal/diagnose) and the
// per-label QoE sketches — the paper's §5–§6 "which layer hurt this
// session?" breakdown at campaign scale. The coverage invariant is the
// pass condition: every session must carry exactly one label, so the
// label counts must sum to the campaign's session count.
func StreamDiagnosis(sn *telemetry.Snapshot) Result {
	return streamDiagnosisResult(analysis.StreamDiagnosis(sn))
}

func streamDiagnosisResult(d analysis.StreamingDiagnosis) Result {
	r := Result{
		ID:    "stream-diagnosis",
		Title: "Per-session root-cause attribution (diagnosis labels)",
		Paper: "§5-§6: per-layer problem classes — server (cache/backend), network (throughput/loss), client stack, ABR",
		Measured: fmt.Sprintf("sessions=%d labelled=%d degraded share=%s",
			d.Sessions, d.Labelled, pct(d.DegradedShare())),
	}
	r.Lines = append(r.Lines, fmt.Sprintf("%-20s %9s %8s %14s %12s %14s",
		"label", "sessions", "share", "startup p50", "rebuf p90", "bitrate p50"))
	for _, row := range d.Rows {
		r.Lines = append(r.Lines, fmt.Sprintf("%-20s %9d %8s %14.3g %12.4g %14.4g",
			row.Label, row.Sessions, pct(row.Share),
			row.Startup.Quantile(0.5), row.RebufferRate.Quantile(0.9),
			row.Bitrate.Quantile(0.5)))
	}
	r.Pass = d.Enabled() && d.Labelled == d.Sessions
	if !d.Enabled() {
		r.Note = "snapshot carries no diagnosis labels (re-run with -diagnose or a diagnosis-enabled spec)"
	}
	return r
}

// streamLiveResult renders the live-streaming report: the join-time and
// live-edge-lag distributions, the per-channel audience mix, and the
// channel-switch count (internal/live). Only rendered for snapshots
// from live campaigns.
func streamLiveResult(l analysis.StreamingLive) Result {
	var joined uint64
	for _, d := range l.Channels {
		joined += d.N
	}
	r := Result{
		ID:    "stream-live",
		Title: "Live channels: join time, live-edge lag, audience mix",
		Paper: "live/linear extension: sessions join at the live edge; the publish clock, not the path, bounds lead",
		Measured: fmt.Sprintf("sessions=%d channels=%d switches=%d; join p50=%.3g ms lag p90=%.3g ms",
			l.Sessions, len(l.Channels), l.Switches,
			l.JoinTime.Quantile(0.5), l.EdgeLag.Quantile(0.9)),
	}
	r.Lines = append(r.Lines,
		sketchLine("join time (ms)", l.JoinTime),
		sketchLine("live-edge lag (ms)", l.EdgeLag),
	)
	for _, d := range l.Channels {
		r.Lines = append(r.Lines, fmt.Sprintf("channel=%-6d %8d sessions", d.IntValue(), d.N))
	}
	// Coverage invariant: every session joined exactly one channel.
	r.Pass = l.Sessions > 0 && joined == l.Sessions && len(l.Channels) > 0
	return r
}

// AllStreaming renders every sketch-backed figure from a snapshot. The
// diagnosis, timeline-window, live, and proxy reports join the set only
// when the snapshot carries their state, so plain -stream snapshots
// render exactly as before.
func AllStreaming(sn *telemetry.Snapshot) []Result {
	out := []Result{StreamCDN(sn), StreamMix(sn), StreamQoE(sn)}
	if d := analysis.StreamDiagnosis(sn); d.Enabled() {
		out = append(out, streamDiagnosisResult(d))
	}
	if w := analysis.StreamWindows(sn); w.Enabled() {
		out = append(out, streamWindowsResult(w))
	}
	if l := analysis.StreamLive(sn); l.Enabled() {
		out = append(out, streamLiveResult(l))
	}
	if p := analysis.StreamProxy(sn); p.Enabled() {
		out = append(out, streamProxyResult(p))
	}
	return out
}
