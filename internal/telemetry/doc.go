// Package telemetry is the online, one-pass metrics subsystem: it folds
// the runner's per-session and per-chunk records into bounded-memory,
// mergeable aggregates — deterministic KLL-style quantile sketches
// (QuantileSketch), fixed-bin histograms (Histogram), and dimensioned
// counters (DimKey) keyed by PoP, cache level, bitrate, and org type —
// covering every distribution the paper's §4–§5 analyses consume (startup
// time, D_FB, D_LB, SRTT, server latency, re-buffering ratio, hit ratio).
// A campaign streamed through an Accumulator needs O(sketch) memory
// instead of O(records), which is what lets a single machine characterize
// 10M+ sessions the way the paper's pipeline processed its 523M-chunk
// production trace.
//
// # Determinism rule
//
// Every aggregate here is deterministic given its insertion order: the
// quantile sketch uses a fixed compaction schedule with an alternating
// offset (no randomness), and merging two sketches is a pure function of
// the two states. The sharded session runner feeds one Accumulator per
// PoP shard — each shard's engine is deterministic, so each accumulator's
// insertion order is too — and Campaign.Snapshot merges the per-shard
// accumulators in canonical (ascending) PoP order, never in shard
// completion order. Under that rule a streamed snapshot serializes to
// byte-identical JSON at every Scenario.Parallelism setting, the same
// guarantee core.Merge gives the exact path. Anything that consumes or
// extends this package must preserve it: merge in canonical PoP order,
// and never let goroutine scheduling pick the order aggregates combine.
//
// # Wiring
//
// session.Execute(sc, session.Options{Sinks: campaign.Sink}) streams a campaign;
// Campaign.Snapshot() returns the merged Snapshot, which
// WriteSnapshot/ReadSnapshot serialize as JSON (cmd/vodsim -stream writes
// one, cmd/analyze -snapshot reads one, and internal/analysis's Stream*
// functions compute the sketch-backed counterparts of the exact analyses).
//
// # Diagnosis mode
//
// NewCampaignWith (or NewAccumulatorWith) with a non-nil Config.Diagnose
// additionally classifies every
// consumed session with internal/diagnose (a pure function of the
// session's records, so the determinism rule is preserved) and maintain
// one exact session counter ("sessions_diag=<label>") plus per-label
// startup/re-buffering/bitrate sketches ("startup_ms_diag=<label>", …)
// per diagnosis label — the state behind cmd/analyze -diagnose and the
// diag_share_* rows of the A/B comparison.
//
// # Windowed mode
//
// NewCampaignWith with a Windows list (derived from a scenario's
// timeline, internal/timeline) additionally charges every consumed
// session — by its arrival time, a value fixed at planning, so the
// determinism rule is preserved — to one named timeline window: one
// exact session counter ("sessions_window=<name>"), per-window QoE
// sketches ("startup_ms_window=<name>", …), and, with diagnosis on too,
// per-window per-label counters
// ("sessions_window=<name>_diag=<label>"). This is the state behind
// cmd/analyze -windows: QoE before/during/after an injected fault,
// without ever materializing a record.
package telemetry
