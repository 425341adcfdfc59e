// Package telemetry is the online, one-pass metrics subsystem: it folds
// the runner's per-session and per-chunk records into bounded-memory,
// mergeable aggregates — deterministic KLL-style quantile sketches
// (QuantileSketch), each carrying the running sum of its samples, and
// dimensioned counters (DimKey) keyed by PoP, cache level, bitrate, and
// org type — covering every distribution the paper's §4–§5 analyses
// consume (startup time, D_FB, D_LB, SRTT, server latency, re-buffering
// ratio, hit ratio).
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
// the two states. A sketch's sum is a float64 running sum, so it too
// depends on the order of the adds and merges, not only on the samples.
// The sharded session runner feeds one Accumulator per
// PoP shard — each shard's engine is deterministic, so each accumulator's
// insertion order is too — and Campaign.Snapshot merges the per-shard
// accumulators in canonical (ascending) PoP order, never in shard
// completion order. Under that rule a streamed snapshot serializes to
// byte-identical JSON at every Scenario.Parallelism setting, the same
// guarantee canonical order (core.Dataset.SortCanonical) gives the
// exact path. Anything that consumes or extends this package must
// preserve it: merge in canonical PoP order, and never let goroutine
// scheduling pick the order aggregates combine.
//
// # Wiring
//
// session.Execute(sc, session.Options{Sinks: campaign.Sink}) streams a campaign;
// Campaign.Snapshot() returns the merged Snapshot, which
// WriteSnapshot/ReadSnapshot serialize as JSON (cmd/vodsim -stream writes
// one, cmd/analyze -snapshot reads one, and internal/analysis's Stream*
// functions compute the sketch-backed counterparts of the exact analyses).
//
// # Optional families
//
// Everything a campaign folds beyond the core aggregates comes from an
// optional family, one file each: per-session diagnosis (diag.go, the
// state behind cmd/analyze -diagnose), timeline windows (windows.go,
// behind cmd/analyze -windows), live (live.go) and proxy (proxy.go). A
// family is a private type implementing the family interface. Its
// sketches' names are laid out once per Config (a Campaign's shape) and
// its constructor takes the sketches themselves from the accumulator's
// one slab, so its whole shape exists before the first session; consume
// folds one finished session; at snapshot time it names its own
// dimensioned counters and adds its own snapshot fields (the window
// list). NewAccumulatorWith builds the families the Config enables, in
// the order diagnosis, windows, live, proxy, and wires the one rule that
// crosses families: the windows family reads the label the diagnosis
// family has just assigned, for the per-window cause counters. Every family folds only
// values fixed by the session's own records, so the determinism rule
// holds for its state too.
package telemetry
