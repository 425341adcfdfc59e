// execute.go is the package's single public entry point. Every way of
// running a campaign — materializing the joined dataset, streaming into
// bounded-memory telemetry, or feeding caller-owned sinks — goes through
// Execute; the Options struct selects the mode and carries every knob
// that used to be its own Run* variant.
package session

import (
	"fmt"

	"vidperf/internal/core"
	"vidperf/internal/diagnose"
	"vidperf/internal/telemetry"
	"vidperf/internal/timeline"
	"vidperf/internal/workload"
)

// Options configures one Execute call. The zero value runs the scenario
// in dataset mode: every record is materialized and returned as
// Result.Dataset.
type Options struct {
	// Telemetry selects streaming-telemetry mode: finished sessions fold
	// into mergeable sketches and counters as each shard
	// produces them, no record is materialized, and Execute returns the
	// merged campaign snapshot as Result.Snapshot. One telemetry.Campaign
	// supplies the per-PoP accumulator sinks and the shards merge in
	// canonical PoP order, so the snapshot is byte-identical at every
	// Scenario.Parallelism setting. This is the single-cell primitive
	// cmd/vodsim -stream/-spec, cmd/sweep, and internal/serve build on.
	Telemetry bool
	// SketchK is the quantile-sketch compaction parameter in telemetry
	// mode (<= 0 selects telemetry.DefaultSketchK; error bound ≈ 4/k).
	SketchK int
	// Diagnose classifies every finished session with internal/diagnose
	// at its default thresholds and adds the per-label cause counters and
	// QoE sketches to the snapshot (telemetry mode only). Diagnosis
	// happens inside each shard's accumulator, so the byte-identical-at-
	// any-parallelism guarantee carries over to the per-label state.
	Diagnose bool
	// Windows, when non-empty, overrides the report windows the campaign
	// accumulators charge sessions to (telemetry mode only). Window
	// bounds are on the virtual clock (i.e. they must account for
	// Scenario.ArrivalOffsetMS, since window attribution keys on each
	// session's absolute arrival). When nil, windows derive from the
	// scenario's timeline, shifted by Scenario.ArrivalOffsetMS onto the
	// virtual clock.
	Windows []timeline.Window
	// Sinks, when non-nil, selects custom-sink mode: finished sessions
	// flow into the per-shard sinks the factory builds instead of any
	// Result payload. With an O(1)-memory sink this is the path that
	// characterizes campaigns far larger than RAM. Mutually exclusive
	// with Telemetry (the telemetry campaign owns the sinks there).
	Sinks SinkFactory
	// Progress, when non-nil, receives live atomic counters (sessions,
	// chunks, shard queue) while the run is in flight. It is reset at
	// the start of the run.
	Progress *Progress
}

// Result is Execute's payload: exactly one field is non-nil, matching
// the selected mode (both are nil in custom-sink mode, where the
// caller's sinks received the records).
type Result struct {
	// Dataset is the full materialized record set (dataset mode).
	Dataset *core.Dataset
	// Snapshot is the merged campaign telemetry (telemetry mode).
	Snapshot *telemetry.Snapshot
}

// Execute runs the scenario in the mode Options selects. The ABR name and
// the scenario's ranges (workload.Scenario.Validate) are checked before
// the population is built, so a bad knob fails fast with an error
// instead of panicking or running seconds of world generation; option
// combinations that contradict the selected mode fail the same way.
func Execute(sc workload.Scenario, opt Options) (Result, error) {
	if _, err := NewABR(sc.ABRName); err != nil {
		return Result{}, err
	}
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	if opt.Sinks != nil && opt.Telemetry {
		return Result{}, fmt.Errorf("session: Options.Sinks and Options.Telemetry are mutually exclusive (the telemetry campaign owns the sinks)")
	}
	if !opt.Telemetry && (opt.SketchK != 0 || opt.Diagnose || opt.Windows != nil) {
		return Result{}, fmt.Errorf("session: Options.SketchK, Diagnose, and Windows configure telemetry mode; set Options.Telemetry")
	}
	if opt.Progress != nil {
		opt.Progress.Reset()
	}
	switch {
	case opt.Sinks != nil:
		return Result{}, runOnPopulationWithSinks(workload.Build(sc), opt.Sinks, opt.Progress)
	case opt.Telemetry:
		sn, err := executeTelemetry(sc, opt)
		if err != nil {
			return Result{}, err
		}
		return Result{Snapshot: sn}, nil
	default:
		var col core.SpanCollector
		err := runOnPopulationWithSinks(workload.Build(sc), func(int) core.RecordSink {
			return col.NewSink()
		}, opt.Progress)
		if err != nil {
			return Result{}, err
		}
		return Result{Dataset: col.Dataset()}, nil
	}
}

// executeTelemetry is the telemetry-mode body: one campaign supplies the
// per-shard accumulator sinks and the merged snapshot is the result.
//
// A scenario with a timeline additionally runs in windowed mode: the
// campaign's accumulators charge each session to the timeline window
// containing its arrival, so the snapshot carries the per-window
// counters and QoE sketches `analyze windows` renders. Window
// attribution happens per shard and merges like every other aggregate,
// so it too is byte-identical at any parallelism.
func executeTelemetry(sc workload.Scenario, opt Options) (*telemetry.Snapshot, error) {
	eff := sc.WithDefaults()
	windows := opt.Windows
	if windows == nil {
		windows = eff.Timeline.Windows(eff.ArrivalWindowMS)
		if eff.ArrivalOffsetMS != 0 {
			for i := range windows {
				windows[i].StartMS += eff.ArrivalOffsetMS
				windows[i].EndMS += eff.ArrivalOffsetMS
			}
		}
	}
	cfg := telemetry.Config{
		SketchK: opt.SketchK,
		Windows: windows,
		Live:    eff.Live.Enabled(),
		Proxy:   eff.Proxy.Enabled(),
	}
	pop := workload.Build(sc)
	if opt.Diagnose {
		// The abr-limited screen measures bitrate against the run's own
		// ladder, catalog defaults applied.
		ladder := pop.Catalog.Bitrates
		cfg.Diagnose = &diagnose.Config{LadderTopKbps: float64(ladder[len(ladder)-1])}
	}
	camp := telemetry.NewCampaignWith(cfg)
	if err := runOnPopulationWithSinks(pop, camp.Sink, opt.Progress); err != nil {
		return nil, err
	}
	return camp.Snapshot(), nil
}
