package sim

import (
	"sync/atomic"
	"testing"
)

// shardTrace runs a small self-scheduling workload on one shard and
// returns the event-time trace it produced.
func shardTrace(s *Shard) []float64 {
	var trace []float64
	for i := 0; i < 5; i++ {
		at := float64((s.ID + 1) * (i + 1))
		s.Engine.At(at, Func(func(now float64) {
			trace = append(trace, now)
			if now < 100 {
				s.Engine.After(7, Func(func(now float64) { trace = append(trace, now) }))
			}
		}))
	}
	s.Engine.Run()
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
		RunShards(par, shards, func(s *Shard) { traces[s.ID] = shardTrace(s) })
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
	RunShards(4, shards, func(s *Shard) { atomic.AddInt64(&counts[s.ID], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("shard %d ran %d times", i, c)
		}
	}
}

func TestRunShardsZeroParallelism(t *testing.T) {
	var ran atomic.Int64
	RunShards(0, []*Shard{{ID: 0}, {ID: 1}}, func(*Shard) { ran.Add(1) })
	if ran.Load() != 2 {
		t.Fatalf("ran %d shards, want 2", ran.Load())
	}
}
