package telemetry

import (
	"testing"

	"vidperf/internal/stats"
)

// benchDelays returns n log-normal samples shaped like per-chunk delays
// in milliseconds (median ≈ 55 ms, long right tail).
func benchDelays(n int, seed uint64) []float64 {
	r := stats.NewRand(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.LogNormal(4, 1.2)
	}
	return xs
}

// BenchmarkSketchAdd times one Add into a default-k sketch, compactions
// included: the per-chunk fold's sketch cost.
func BenchmarkSketchAdd(b *testing.B) {
	xs := benchDelays(1<<16, 1)
	s := NewSketch(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(xs[i&(len(xs)-1)])
	}
}

// BenchmarkSketchMerge times folding 40 shard sketches of 20k samples
// each into an empty one, the shape of a campaign snapshot's shard merge.
func BenchmarkSketchMerge(b *testing.B) {
	const shards, perShard = 40, 20000
	parts := make([]*QuantileSketch, shards)
	for i := range parts {
		parts[i] = NewSketch(0)
		for _, v := range benchDelays(perShard, uint64(i)+1) {
			parts[i].Add(v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := NewSketch(0)
		for _, p := range parts {
			dst.Merge(p)
		}
	}
}

// BenchmarkSketchQuantiles times reading the store's four quantile
// levels (p50, p90, p95, p99) from a sketch of 800k delays in one
// Quantiles call: one sort of the retained items.
func BenchmarkSketchQuantiles(b *testing.B) {
	s := NewSketch(0)
	for i := 0; i < 40; i++ {
		for _, v := range benchDelays(20000, uint64(i)+1) {
			s.Add(v)
		}
	}
	qs, out := []float64{0.50, 0.90, 0.95, 0.99}, make([]float64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Quantiles(qs, out)
	}
}
