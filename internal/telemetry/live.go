// live.go folds live-mode QoE (internal/live) into the streaming
// aggregates: the join-time and live-edge-lag distributions, a
// per-channel session counter, and the campaign-wide switch count. Live
// mode is opt-in (Config.Live) with eagerly created sketches, so
// non-live snapshots carry not a byte of live state and live snapshots
// merge deterministically at any parallelism.
package telemetry

import (
	"math"

	"vidperf/internal/core"
)

// Metric names of the live-mode sketches.
const (
	// MetricJoinTimeMS is the per-session join time: arrival to first
	// frame of an in-progress channel (the live analogue of startup
	// delay; sessions that never start are excluded, as for startup_ms).
	MetricJoinTimeMS = "join_time_ms"
	// MetricLiveEdgeLagMS is the per-session total time spent waiting on
	// the publish clock — stalls caused by the medium rather than the
	// delivery path.
	MetricLiveEdgeLagMS = "live_edge_lag_ms"
)

// CounterLiveSwitches counts mid-stream channel switches across the
// campaign.
const CounterLiveSwitches = "live_switches"

// LiveChannelDim is the dimension name per-channel counters key on
// ("sessions_channel=00003").
const LiveChannelDim = "channel"

// LiveChannelSessionsKey returns the per-channel session counter key.
func LiveChannelSessionsKey(ch int) string {
	return IntDimKey(CounterSessions, LiveChannelDim, ch)
}

// enableLive switches the accumulator into live mode. Call before the
// first ConsumeSession; the sketches are created eagerly so empty
// shards still merge and snapshot deterministically.
func (a *Accumulator) enableLive() {
	a.live = true
	a.joinTime = a.addSketch(MetricJoinTimeMS)
	a.edgeLag = a.addSketch(MetricLiveEdgeLagMS)
}

// consumeLive folds one finished live session into the live aggregates.
// The switch counter is added even when the session never switched, so
// a live campaign always reports live_switches, if only as zero.
func (a *Accumulator) consumeLive(s *core.SessionRecord) {
	if !s.Live {
		return
	}
	a.counts[counterKey{fam: famSessionsChannel, num: s.LiveChannel}]++
	a.counts[plainKey(CounterLiveSwitches)] += uint64(s.LiveSwitches)
	if !math.IsNaN(s.StartupMS) {
		a.joinTime.Add(s.StartupMS)
	}
	a.edgeLag.Add(s.LiveEdgeLagMS)
}
