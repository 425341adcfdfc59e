// Package session is the end-to-end runner: it executes a workload
// scenario on the discrete-event engine, wiring each session's ABR,
// TCP connection, download stack, player, and rendering path to the shared
// CDN fleet, and emits the joined per-chunk/per-session instrumentation
// records (internal/core) that every analysis consumes.
//
// One session is one TCP connection issuing a linear sequence of chunk
// requests (the paper's session model); the engine interleaves thousands
// of sessions so the servers' caches and worker pools see a realistic
// request mix.
//
// Execution is sharded at server granularity. A session's chunks all land
// on one server — the slot is a pure function of (video, session), see
// cdn.SlotFor — and servers within a PoP share no mutable state, so the
// campaign splits into one closed event system per (PoP, server slot)
// pair: the runner plans the partition, executes each shard on its own
// sim.Engine — up to Scenario.Parallelism engines concurrently — and
// merges the per-shard outputs in the canonical ascending (PoP, slot)
// order. Because every random stream derives from (seed, PoP, slot) or
// (seed, session ID) alone, the merged trace is byte-identical at any
// parallelism level. See ARCHITECTURE.md, "Performance model".
package session

import (
	"fmt"

	"vidperf/internal/abr"
	"vidperf/internal/cache"
	"vidperf/internal/catalog"
	"vidperf/internal/cdn"
	"vidperf/internal/core"
	"vidperf/internal/sim"
	"vidperf/internal/timeline"
	"vidperf/internal/workload"
)

// NewABR builds the adaptation algorithm by name. It returns an error for
// unknown names so CLIs can report flag typos.
func NewABR(name string) (abr.Algorithm, error) {
	switch name {
	case "hybrid", "":
		return abr.Hybrid{}, nil
	case "rate-smoothed":
		return abr.RateBased{}, nil
	case "rate-instant":
		return abr.RateBased{UseInstantaneous: true}, nil
	case "rate-instant-screened":
		return abr.RateBased{UseInstantaneous: true, ExcludeOutliers: true}, nil
	case "rate-smoothed-screened":
		return abr.RateBased{ExcludeOutliers: true}, nil
	case "buffer-based":
		return abr.BufferBased{}, nil
	case "server-signal":
		return abr.ServerSignal{}, nil
	case "fixed-low":
		return abr.Fixed{Kbps: 235}, nil
	case "fixed-high":
		return abr.Fixed{Kbps: 3000}, nil
	}
	return nil, fmt.Errorf("session: unknown ABR algorithm %q", name)
}

// SinkFactory builds the core.RecordSink for one shard. The runner calls
// it once per non-empty shard — several times per PoP, since shards are
// per server slot — during the sequential plan phase in ascending
// (PoP, slot) order, so factories need no locking of their own and may
// rely on call order as the canonical merge order. The returned sink
// receives the shard's finished sessions from that shard's goroutine
// only.
type SinkFactory func(popID int) core.RecordSink

// runOnPopulationWithSinks is the execution core every Execute mode
// shares: it runs an already-built population into per-shard sinks in
// three phases — plan (partition sessions by server), execute (one
// engine per shard, Scenario.Parallelism shards at a time), merge
// (canonical order). When prog is non-nil,
// every shard sink is wrapped to tick its counters and shard completion
// is published as shards drain. The wrapping changes no record content
// or ordering, so the byte-identity guarantees are untouched.
func runOnPopulationWithSinks(pop *workload.Population, factory SinkFactory, prog *Progress) error {
	shards, err := planShards(pop, countingFactory(factory, prog))
	if err != nil {
		return err
	}
	if prog != nil {
		prog.ShardsTotal.Store(int64(len(shards)))
	}
	executeShards(pop.Scenario.Parallelism, shards, prog)
	return nil
}

// slotShard is one server's slice of the campaign: the sessions it
// serves, its private single-server fleet partition, engine, and record
// sink. Shards share only the immutable population.
type slotShard struct {
	pop   *workload.Population
	refs  []workload.SessionRef
	popID int
	slot  int
	algo  abr.Algorithm
	shard sim.Shard
	sink  core.RecordSink

	// recPool recycles finished sessions' ChunkRecord buffers (sinks copy
	// what they keep, per the core.RecordSink contract) so steady-state
	// execution allocates no per-chunk storage. srtt is the finish-time
	// scratch for the per-session SRTT series.
	recPool [][]core.ChunkRecord
	srtt    []float64
}

// getRecords hands out a recycled chunk-record buffer, or a fresh one
// sized for the session's planned watch length.
func (sh *slotShard) getRecords(capHint int) []core.ChunkRecord {
	if n := len(sh.recPool); n > 0 {
		b := sh.recPool[n-1]
		sh.recPool = sh.recPool[:n-1]
		return b
	}
	return make([]core.ChunkRecord, 0, capHint)
}

// putRecords returns a finished session's buffer to the pool. The caller
// must be done with every record in it.
func (sh *slotShard) putRecords(b []core.ChunkRecord) {
	sh.recPool = append(sh.recPool, b[:0])
}

// planShards partitions the campaign by (PoP, server slot) and validates
// the scenario. It is the phase where configuration errors surface,
// before any of the expensive per-shard work starts. Sink factories run
// here, sequentially in ascending (PoP, slot) order.
func planShards(pop *workload.Population, factory SinkFactory) ([]*slotShard, error) {
	sc := pop.Scenario
	cfg := sc.Fleet.WithDefaults()
	if err := sc.Timeline.Validate(); err != nil {
		return nil, err
	}
	if err := sc.Timeline.ValidatePoPs(cfg.NumPoPs); err != nil {
		return nil, err
	}
	if err := sc.Live.Validate(); err != nil {
		return nil, err
	}
	if err := sc.Proxy.Validate(); err != nil {
		return nil, err
	}
	if err := catalog.ValidateBitrates(sc.Catalog.Bitrates); err != nil {
		return nil, err
	}
	parts, plannedChunks := pop.PartitionBySlot(cfg)
	shards := make([]*slotShard, 0, len(parts))
	for bucket, refs := range parts {
		if len(refs) == 0 {
			continue
		}
		algo, err := NewABR(sc.ABRName)
		if err != nil {
			return nil, err
		}
		popID, slot := bucket/cfg.ServersPerPoP, bucket%cfg.ServersPerPoP
		sink := factory(popID)
		if r, ok := sink.(core.RecordReserver); ok {
			r.ReserveRecords(len(refs), plannedChunks[bucket])
		}
		shards = append(shards, &slotShard{
			pop:   pop,
			refs:  refs,
			popID: popID,
			slot:  slot,
			algo:  algo,
			shard: sim.Shard{ID: bucket, Weight: plannedChunks[bucket]},
			sink:  sink,
		})
	}
	return shards, nil
}

// executeShards runs every shard's event loop, at most parallelism at a
// time. Shard weights (session counts) let the scheduler start the
// heaviest shards first so the run's tail is not one hot server.
func executeShards(parallelism int, shards []*slotShard, prog *Progress) {
	byID := make(map[int]*slotShard, len(shards))
	simShards := make([]*sim.Shard, 0, len(shards))
	for _, sh := range shards {
		byID[sh.shard.ID] = sh
		simShards = append(simShards, &sh.shard)
	}
	sim.RunShards(parallelism, simShards, func(s *sim.Shard) {
		byID[s.ID].run()
		if prog != nil {
			prog.ShardsDone.Add(1)
		}
	})
}

// run builds the shard's single-server fleet partition, warms it,
// schedules the shard's session arrivals, and drains the event loop.
// Everything it touches is shard-private except the read-only population.
// Session state (TCP connection, player, ABR estimator) is created at
// arrival time and becomes garbage once the session's records are handed
// to the sink, so a streaming sink keeps the shard's live heap
// proportional to concurrently playing sessions rather than to the whole
// campaign.
func (sh *slotShard) run() {
	sc := sh.pop.Scenario
	fleet := cdn.NewSlotFleet(sc.Fleet, sc.Seed, sh.popID, sh.slot)
	if !sc.ColdStart {
		WarmPoP(fleet, sh.pop.Catalog, sh.popID)
	}
	reserveArenas(fleet.PoPServers(sh.popID)[sh.slot].Cache(), sh.shard.Weight)
	eng := &sh.shard.Engine
	scheduleTimelineEvents(eng, fleet, sh.popID, sc.Timeline, sc.ArrivalOffsetMS)
	arrivals := make([]arrival, len(sh.refs))
	for i, ref := range sh.refs {
		arrivals[i] = arrival{sh: sh, fleet: fleet, id: ref.ID}
		eng.At(ref.ArrivalMS, &arrivals[i])
	}
	eng.Run()
}

// reserveArenas sizes an LRU cache's arenas for a shard's planned chunk
// requests. A request adds at most one arena entry per level (a fill, or
// a warm entry promoted out of the seed), so no arena grows by doubling
// mid-run, warm or cold.
func reserveArenas(ml *cache.MultiLevel, plannedChunks int) {
	for _, p := range [2]cache.Policy{ml.RAM, ml.Disk} {
		if lru, ok := p.(*cache.LRU); ok {
			lru.Reserve(plannedChunks)
		}
	}
}

// arrival is the event that starts one session: it plans the session and
// issues its first chunk request.
type arrival struct {
	sh    *slotShard
	fleet *cdn.Fleet
	id    uint64
}

// Fire implements sim.Handler.
func (a *arrival) Fire(float64) {
	plan := a.sh.pop.PlanSession(a.id)
	newSessionState(a.sh, plan, a.fleet, &a.sh.shard.Engine).requestNextChunk()
}

// scheduleTimelineEvents installs the timeline's per-server mutations as
// engine events inside one shard: cache-capacity shrink at each phase
// start and restore at its end. They are scheduled before any arrival,
// so at equal timestamps the capacity change is applied before sessions
// arriving at that exact instant — the same deterministic order on every
// run and at every parallelism, since each shard mutates only its own
// servers inside its own event system. A partial fleet's server slice
// has nil entries for slots other shards own; they are skipped. Phase
// times are window-relative; offsetMS (Scenario.ArrivalOffsetMS) shifts
// them onto the same virtual clock as the offset arrivals.
func scheduleTimelineEvents(eng *sim.Engine, fleet *cdn.Fleet, popID int, tl timeline.Timeline, offsetMS float64) {
	for _, ph := range tl.Phases {
		f := ph.Effects.CacheCapacityFactor
		if f <= 0 || f == 1 {
			continue
		}
		servers := fleet.PoPServers(popID)
		resize := func(factor float64) sim.Func {
			return func(float64) {
				for _, srv := range servers {
					if srv == nil {
						continue
					}
					cfg := srv.Config()
					srv.Cache().Resize(scaleBytes(cfg.RAMBytes, factor), scaleBytes(cfg.DiskBytes, factor))
				}
			}
		}
		eng.At(offsetMS+ph.StartMS, resize(f))
		eng.At(offsetMS+ph.EndMS, resize(1))
	}
}

// scaleBytes scales a byte capacity, clamping at one byte.
func scaleBytes(b int64, factor float64) int64 {
	scaled := int64(float64(b) * factor)
	if scaled < 1 {
		scaled = 1
	}
	return scaled
}
