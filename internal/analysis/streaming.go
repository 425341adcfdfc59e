// streaming.go holds the sketch-backed counterparts of the exact
// analyses: each Stream* function computes from a telemetry.Snapshot what
// its batch sibling computes from a materialized core.Dataset, within the
// sketches' documented rank-error bound. The parity tests in
// internal/telemetry pin the two paths together on the shared campaign.
package analysis

import (
	"vidperf/internal/telemetry"
)

// StreamingCDNBreakdown mirrors CDNLatencyBreakdown (Fig. 5) computed
// from a snapshot: component sketches instead of ECDFs, counters for the
// retry-timer share.
type StreamingCDNBreakdown struct {
	Dwait, Dopen, Dread  *telemetry.QuantileSketch
	TotalHit, TotalMiss  *telemetry.QuantileSketch
	MedianHitMS          float64
	MedianMissMS         float64
	RetryTimerChunkShare float64
}

// StreamBreakdownCDNLatency computes the Fig. 5 breakdown from a
// telemetry snapshot.
func StreamBreakdownCDNLatency(sn *telemetry.Snapshot) StreamingCDNBreakdown {
	hit := sn.Sketch(telemetry.MetricServerHitMS)
	miss := sn.Sketch(telemetry.MetricServerMissMS)
	return StreamingCDNBreakdown{
		Dwait:                sn.Sketch(telemetry.MetricDwaitMS),
		Dopen:                sn.Sketch(telemetry.MetricDopenMS),
		Dread:                sn.Sketch(telemetry.MetricDreadMS),
		TotalHit:             hit,
		TotalMiss:            miss,
		MedianHitMS:          hit.Quantile(0.5),
		MedianMissMS:         miss.Quantile(0.5),
		RetryTimerChunkShare: sn.ChunkShare(telemetry.CounterChunksRetryTimer),
	}
}

// StreamingQoE summarizes the per-session QoE distributions of a
// snapshot: startup delay and re-buffering ratio, plus the share of
// sessions that never started playback (the NaN-startup sessions the
// exact path also excludes from the startup distribution).
type StreamingQoE struct {
	Startup           *telemetry.QuantileSketch // ms, started sessions only
	RebufferRate      *telemetry.QuantileSketch // fraction of session time stalled
	Sessions          uint64
	NeverStarted      uint64
	NeverStartedShare float64
}

// StreamQoESummary extracts the QoE view from a snapshot.
func StreamQoESummary(sn *telemetry.Snapshot) StreamingQoE {
	out := StreamingQoE{
		Startup:      sn.Sketch(telemetry.MetricStartupMS),
		RebufferRate: sn.Sketch(telemetry.MetricRebufferRate),
		Sessions:     sn.Counter(telemetry.CounterSessions),
		NeverStarted: sn.Counter(telemetry.CounterSessionsNeverStart),
	}
	if out.Sessions > 0 {
		out.NeverStartedShare = float64(out.NeverStarted) / float64(out.Sessions)
	}
	return out
}

// PoPHitRatio is one PoP's row of the streaming hit-ratio table.
type PoPHitRatio struct {
	PoP      int
	Chunks   uint64
	Hits     uint64
	HitRatio float64
}

// StreamingMix is the dimensioned-counter view of a snapshot: cache hit
// ratios overall, per PoP and per cache level, the bitrate mix, and the
// session mix by org type. Rows are sorted by dimension value, so output
// is deterministic.
type StreamingMix struct {
	Chunks   uint64
	Hits     uint64
	Overall  float64 // campaign-wide hit ratio
	ByPoP    []PoPHitRatio
	ByLevel  []telemetry.DimCount // chunks per cache level ("ram", "disk", "miss")
	Bitrates []telemetry.DimCount // chunks per ladder rung
	Orgs     []telemetry.DimCount // sessions per org type
}

// StreamHitRatios computes the hit-ratio and mix tables from a snapshot's
// counters. These are exact (counters, not sketches).
func StreamHitRatios(sn *telemetry.Snapshot) StreamingMix {
	out := StreamingMix{
		Chunks:   sn.Counter(telemetry.CounterChunks),
		Hits:     sn.Counter(telemetry.CounterChunksHit),
		Overall:  sn.ChunkShare(telemetry.CounterChunksHit),
		ByLevel:  telemetry.CountersByDim(sn.Counters, telemetry.CounterChunks, "cache"),
		Bitrates: telemetry.CountersByDim(sn.Counters, telemetry.CounterChunks, "bitrate"),
		Orgs:     telemetry.CountersByDim(sn.Counters, telemetry.CounterSessions, "org"),
	}
	hitsByPoP := map[int]uint64{}
	for _, d := range telemetry.CountersByDim(sn.Counters, telemetry.CounterChunksHit, "pop") {
		hitsByPoP[d.IntValue()] = d.N
	}
	for _, d := range telemetry.CountersByDim(sn.Counters, telemetry.CounterChunks, "pop") {
		row := PoPHitRatio{PoP: d.IntValue(), Chunks: d.N, Hits: hitsByPoP[d.IntValue()]}
		if row.Chunks > 0 {
			row.HitRatio = float64(row.Hits) / float64(row.Chunks)
		}
		out.ByPoP = append(out.ByPoP, row)
	}
	return out
}

// StreamingLatency is the network-side sketch view: per-chunk D_FB, D_LB,
// SRTT and total server latency distributions (the Fig. 7/8/16 inputs
// that survive streaming aggregation).
type StreamingLatency struct {
	DFB, DLB, SRTT, Server *telemetry.QuantileSketch
}

// StreamLatencyDistributions extracts the latency sketches from a
// snapshot.
func StreamLatencyDistributions(sn *telemetry.Snapshot) StreamingLatency {
	return StreamingLatency{
		DFB:    sn.Sketch(telemetry.MetricDFBMS),
		DLB:    sn.Sketch(telemetry.MetricDLBMS),
		SRTT:   sn.Sketch(telemetry.MetricSRTTMS),
		Server: sn.Sketch(telemetry.MetricServerMS),
	}
}
