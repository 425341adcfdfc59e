// Package session is the end-to-end runner: it executes a workload
// scenario on the discrete-event engine, wiring each session's ABR,
// TCP connection, download stack, player, and rendering path to the CDN
// server that serves it, and emits the joined per-chunk/per-session
// instrumentation records (internal/core) that every analysis consumes.
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
	"slices"

	"vidperf/internal/abr"
	"vidperf/internal/cache"
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
// serves, the one server that serves them, and its record sink. Shards
// share only the immutable population.
type slotShard struct {
	pop   *workload.Population
	refs  []workload.SessionRef
	popID int
	slot  int
	algo  abr.Algorithm
	shard sim.Shard
	sink  core.RecordSink

	// server and scratch are set for the duration of run: the server is
	// built for it, and the scratch is lent by the worker running it.
	server  *cdn.Server
	scratch *shardScratch
}

// shardScratch is what a shard borrows from the worker that runs it:
// the event engine, the arrival handlers, the free list of finished
// session states, and the SRTT series buffer. A worker runs one shard
// at a time, so one scratch serves every shard of the worker in turn,
// and each pool holds at most that worker's peak count of concurrent
// sessions, however many shards it has run. The scratch is garbage once
// executeShards returns.
type shardScratch struct {
	eng      sim.Engine
	arrivals []arrival
	// states are finished sessions' states, reset, each keeping the
	// capacity of its chunk-record and prefetch buffers.
	states []*sessionState
	srtt   []float64
}

// getState hands out a recycled session state, or a fresh one. Either
// equals a zero sessionState apart from the capacity of its buffers.
func (scr *shardScratch) getState() *sessionState {
	if n := len(scr.states); n > 0 {
		st := scr.states[n-1]
		scr.states = scr.states[:n-1]
		return st
	}
	return new(sessionState)
}

// putState resets a finished session's state and returns it to the free
// list. The caller must hold the last reference to it (see finish), and
// be done with every record in its buffer. The reset also drops the
// state's references to its shard's server, sink and population, so a
// free state keeps no finished shard alive.
func (scr *shardScratch) putState(st *sessionState) {
	*st = sessionState{records: st.records[:0], nextBuf: st.nextBuf[:0]}
	scr.states = append(scr.states, st)
}

// planShards partitions the campaign by (PoP, server slot), the phase
// before any of the expensive per-shard work starts; Execute has already
// validated the scenario. Sink factories run here, sequentially in
// ascending (PoP, slot) order.
func planShards(pop *workload.Population, factory SinkFactory) ([]*slotShard, error) {
	sc := pop.Scenario
	cfg := sc.Fleet.WithDefaults()
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
// time. Shard weights (planned chunks) let the scheduler start the
// heaviest shards first so the run's tail is not one hot server. Each
// worker lends its scratch to the shard it runs and takes it back when
// the shard drains.
func executeShards(parallelism int, shards []*slotShard, prog *Progress) {
	byID := make(map[int]*slotShard, len(shards))
	simShards := make([]*sim.Shard, 0, len(shards))
	for _, sh := range shards {
		byID[sh.shard.ID] = sh
		simShards = append(simShards, &sh.shard)
	}
	scratch := make([]shardScratch, sim.Workers(parallelism, len(shards)))
	sim.RunShards(parallelism, simShards, func(w int, s *sim.Shard) {
		byID[s.ID].run(&scratch[w])
		if prog != nil {
			prog.ShardsDone.Add(1)
		}
	})
}

// run builds the shard's server, warms it, schedules the shard's session
// arrivals on the scratch's engine, and drains the event loop.
// Everything it touches is shard-private except the read-only population
// and the scratch it borrows. A session's state comes from the scratch's
// free list at arrival and goes back to it once the session's records
// are handed to the sink, so a streaming sink keeps the live heap
// proportional to concurrently playing sessions rather than to the whole
// campaign. The server and the scratch are dropped when the loop drains:
// shards live until the whole campaign ends.
func (sh *slotShard) run(scratch *shardScratch) {
	sc := sh.pop.Scenario
	fleet := cdn.NewSlotFleet(sc.Fleet, sc.Seed, sh.popID, sh.slot)
	if !sc.ColdStart {
		WarmPoP(fleet, sh.pop.Catalog, sh.popID)
	}
	sh.server = fleet.PoPServers(sh.popID)[sh.slot]
	sh.scratch = scratch
	reserveArenas(sh.server.Cache(), sh.shard.Weight)
	eng := &scratch.eng
	eng.Reset()
	scheduleTimelineEvents(eng, sh.server, sc.Timeline, sc.ArrivalOffsetMS)
	arrivals := slices.Grow(scratch.arrivals[:0], len(sh.refs))[:len(sh.refs)]
	for i, ref := range sh.refs {
		arrivals[i] = arrival{sh: sh, id: ref.ID}
		eng.At(ref.ArrivalMS, &arrivals[i])
	}
	eng.Run()
	scratch.arrivals = arrivals[:0]
	sh.server, sh.scratch = nil, nil
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
	sh *slotShard
	id uint64
}

// Fire implements sim.Handler.
func (a *arrival) Fire(float64) {
	plan := a.sh.pop.PlanSession(a.id)
	newSessionState(a.sh, plan).requestNextChunk()
}

// scheduleTimelineEvents installs the timeline's per-server mutations as
// engine events inside one shard: cache-capacity shrink of the shard's
// server at each phase start and restore at its end. They are scheduled
// before any arrival, so at equal timestamps the capacity change is
// applied before sessions arriving at that exact instant — the same
// deterministic order on every run and at every parallelism, since each
// shard mutates only its own server inside its own event system. Phase
// times are window-relative; offsetMS (Scenario.ArrivalOffsetMS) shifts
// them onto the same virtual clock as the offset arrivals.
func scheduleTimelineEvents(eng *sim.Engine, srv *cdn.Server, tl timeline.Timeline, offsetMS float64) {
	cfg := srv.Config()
	for _, ph := range tl.Phases {
		f := ph.Effects.CacheCapacityFactor
		if f <= 0 || f == 1 {
			continue
		}
		resize := func(factor float64) sim.Func {
			return func(float64) {
				srv.Cache().Resize(scaleBytes(cfg.RAMBytes, factor), scaleBytes(cdn.DiskBytes, factor))
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
