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

// liveFamily folds finished live sessions into the live aggregates.
type liveFamily struct {
	counts            map[counterKey]uint64
	fam               counterFamily
	joinTime, edgeLag *QuantileSketch
}

// liveMetricNames lists the live sketches in slab order.
var liveMetricNames = [...]string{MetricJoinTimeMS, MetricLiveEdgeLagMS}

// newLiveFamily keeps the live sketches in sk, named by liveMetricNames.
func newLiveFamily(a *Accumulator, sk []QuantileSketch) *liveFamily {
	return &liveFamily{counts: a.counts, fam: a.nextFamily(), joinTime: &sk[0], edgeLag: &sk[1]}
}

// consume counts a live session under its channel. The switch counter
// is added even when the session never switched, so a live campaign
// always reports live_switches, if only as zero.
func (f *liveFamily) consume(s core.SessionRecord, _ []core.ChunkRecord) {
	if !s.Live {
		return
	}
	f.counts[counterKey{fam: f.fam, num: s.LiveChannel}]++
	f.counts[plainKey(CounterLiveSwitches)] += uint64(s.LiveSwitches)
	if !math.IsNaN(s.StartupMS) {
		f.joinTime.Add(s.StartupMS)
	}
	f.edgeLag.Add(s.LiveEdgeLagMS)
}

func (f *liveFamily) counterName(k counterKey) string { return LiveChannelSessionsKey(k.num) }

func (f *liveFamily) annotate(*Snapshot) {}
