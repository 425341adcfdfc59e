package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// shardTrace runs a small self-scheduling workload for one shard on e
// and returns the event-time trace it produced.
func shardTrace(e *Engine, s *Shard) []float64 {
	e.Reset()
	var trace []float64
	for i := 0; i < 5; i++ {
		at := float64((s.ID + 1) * (i + 1))
		e.At(at, Func(func(now float64) {
			trace = append(trace, now)
			if now < 100 {
				e.After(7, Func(func(now float64) { trace = append(trace, now) }))
			}
		}))
	}
	e.Run()
	return trace
}

func TestRunShardsParallelismInvariant(t *testing.T) {
	results := map[int][][]float64{}
	for _, par := range []int{1, 3, 16} {
		shards := make([]*Shard, 6)
		for i := range shards {
			shards[i] = &Shard{ID: i}
		}
		traces := make([][]float64, len(shards))
		engines := make([]Engine, Workers(par, len(shards)))
		RunShards(par, shards, func(w int, s *Shard) { traces[s.ID] = shardTrace(&engines[w], s) })
		results[par] = traces
	}
	for _, par := range []int{3, 16} {
		for i := range results[1] {
			a, b := results[1][i], results[par][i]
			if len(a) != len(b) {
				t.Fatalf("par=%d shard %d: %d events vs %d sequential", par, i, len(b), len(a))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("par=%d shard %d event %d: %v vs %v", par, i, j, b[j], a[j])
				}
			}
		}
	}
}

func TestRunShardsRunsEveryShardOnce(t *testing.T) {
	shards := make([]*Shard, 20)
	counts := make([]int64, len(shards))
	for i := range shards {
		shards[i] = &Shard{ID: i}
	}
	RunShards(4, shards, func(_ int, s *Shard) { atomic.AddInt64(&counts[s.ID], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("shard %d ran %d times", i, c)
		}
	}
}

func TestRunShardsZeroParallelism(t *testing.T) {
	var ran atomic.Int64
	RunShards(0, []*Shard{{ID: 0}, {ID: 1}}, func(int, *Shard) { ran.Add(1) })
	if ran.Load() != 2 {
		t.Fatalf("ran %d shards, want 2", ran.Load())
	}
}

// TestRunShardsWorkersExclusive: every call gets a worker index below
// Workers, and no two calls in flight share one, so a worker's scratch
// is never used by two shards at once.
func TestRunShardsWorkersExclusive(t *testing.T) {
	shards := make([]*Shard, 40)
	for i := range shards {
		shards[i] = &Shard{ID: i, Weight: i % 7}
	}
	for _, par := range []int{1, 2, 4, 0} {
		workers := Workers(par, len(shards))
		busy := make([]atomic.Bool, workers)
		var ran atomic.Int64
		RunShards(par, shards, func(w int, s *Shard) {
			if w < 0 || w >= workers {
				t.Errorf("parallelism %d: worker %d outside [0, %d)", par, w, workers)
				return
			}
			if !busy[w].CompareAndSwap(false, true) {
				t.Errorf("parallelism %d: worker %d runs two shards at once", par, w)
			}
			runtime.Gosched()
			busy[w].Store(false)
			ran.Add(1)
		})
		if ran.Load() != int64(len(shards)) {
			t.Fatalf("parallelism %d: ran %d shards, want %d", par, ran.Load(), len(shards))
		}
	}
	if got := Workers(3, 0); got != 0 {
		t.Errorf("Workers(3, 0) = %d, want 0", got)
	}
}

// TestEngineResetKeepsHeap: a reset engine starts at time 0 with no
// pending events and schedules into its old backing array.
func TestEngineResetKeepsHeap(t *testing.T) {
	var e Engine
	var h firings
	for i := 0; i < 64; i++ {
		e.At(float64(i), &h)
	}
	for i := 0; i <= 10; i++ {
		e.Step()
	}
	e.Reset()
	if e.Now() != 0 || len(e.events) != 0 {
		t.Fatalf("after Reset: now %v, %d pending; want 0, 0", e.Now(), len(e.events))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 64; i++ {
			e.At(float64(i), &h)
		}
		e.Run()
		e.Reset()
	}); allocs != 0 {
		t.Fatalf("refilling a reset engine allocates %v objects, want 0", allocs)
	}
}
