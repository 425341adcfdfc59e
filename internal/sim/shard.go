package sim

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Shard is one independent event timeline of a partitioned simulation.
// The session runner shards the campaign by server — sessions never cross
// servers, so each server, its connections, and its players form a closed
// event system that can run on its own Engine without synchronization.
//
// An Engine is single-goroutine; parallelism comes from running disjoint
// shards on separate workers (RunShards). A shard owns no engine: its
// worker resets one (Engine.Reset) for each shard it runs, so the event
// heap's backing array lives as long as the worker, not the shard.
type Shard struct {
	ID int // the partition key (PoP*ServersPerPoP+slot for the session runner)
	// Weight is the shard's relative work estimate (the session runner
	// uses its planned chunk count). RunShards dispatches heavier shards
	// first so one hot shard does not become the run's serial tail; 0
	// means unknown and sorts last.
	Weight int
}

// Workers returns how many shards RunShards runs at once for a
// parallelism request over n shards: parallelism, where <= 0 means
// GOMAXPROCS, clamped to GOMAXPROCS and to n. Requests beyond GOMAXPROCS
// are clamped because extra goroutines cannot add CPU, but they would
// interleave allocation-heavy shard setups and inflate the live heap —
// the regression that made high parallelism a pessimization on small
// machines.
func Workers(parallelism, n int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return min(parallelism, runtime.GOMAXPROCS(0), n)
}

// RunShards calls run(worker, shard) for every shard on Workers(parallelism,
// len(shards)) workers. worker is the index, in [0, Workers), of the
// worker running the call: one worker runs its shards one after another,
// so per-worker scratch needs no locking. With one worker the shards run
// in slice order on the calling goroutine.
//
// With several, the workers take shards heaviest-first (by Weight, ties in
// slice order), so the long shards start early and the short ones pack
// into the gaps — classic LPT scheduling.
//
// run must confine itself to the shard's own state and its worker's
// scratch: shards may not share mutable structures (engines, servers,
// datasets, RNG streams), and nothing a shard leaves in the scratch may
// reach its output. Under that contract the results are independent of
// parallelism and of dispatch order, so a parallel run is byte-identical
// to a sequential one after a deterministic merge.
func RunShards(parallelism int, shards []*Shard, run func(worker int, s *Shard)) {
	workers := Workers(parallelism, len(shards))
	if workers <= 1 {
		for _, s := range shards {
			run(0, s)
		}
		return
	}
	order := slices.Clone(shards)
	slices.SortStableFunc(order, func(a, b *Shard) int { return cmp.Compare(b.Weight, a.Weight) })
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(order)); i = next.Add(1) - 1 {
				run(w, order[i])
			}
		}()
	}
	wg.Wait()
}
