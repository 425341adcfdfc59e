package vidperf

// bench_test.go regenerates every table and figure in the paper's
// evaluation as one Go benchmark (BenchmarkFiguresAll): it prints each
// figure's rows/series (paper-reported vs measured) once and times
// figures.All on the shared dataset. The gate and layer benches further
// down time the simulator itself.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// or only the figures with -bench=BenchmarkFiguresAll.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"vidperf/internal/analysis"
	"vidperf/internal/cache"
	"vidperf/internal/catalog"
	"vidperf/internal/core"
	"vidperf/internal/figures"
	"vidperf/internal/netpath"
	"vidperf/internal/proxydetect"
	"vidperf/internal/session"
	"vidperf/internal/stats"
	"vidperf/internal/tcpmodel"
	"vidperf/internal/telemetry"
	"vidperf/internal/workload"
)

const benchMaxRank = 3000

// benchScenario is the shared 6000-session campaign; parallelism selects
// how many server-slot shards run concurrently (0 = GOMAXPROCS).
func benchScenario(parallelism int) workload.Scenario {
	return workload.Scenario{
		Seed:              2016,
		NumSessions:       6000,
		NumPrefixes:       900,
		MeanWatchedChunks: 12,
		Catalog:           catalog.Config{NumVideos: benchMaxRank},
		Parallelism:       parallelism,
	}
}

var (
	benchOnce sync.Once
	benchDS   *core.Dataset
)

// benchDataset simulates the shared measurement campaign once.
func benchDataset() *core.Dataset {
	benchOnce.Do(func() {
		res, err := session.Execute(benchScenario(0), session.Options{})
		if err != nil {
			panic(err)
		}
		benchDS = proxydetect.Keep(res.Dataset, proxydetect.Detect(res.Dataset.Sessions, proxydetect.Config{}))
	})
	return benchDS
}

var printed sync.Map

// BenchmarkFiguresAll regenerates every figure and table with
// figures.All, the pass cmd/repro and analyze trace run, printing them
// once. It fails unless every result reproduces its paper shape.
func BenchmarkFiguresAll(b *testing.B) {
	ds := benchDataset()
	b.ReportAllocs()
	b.ResetTimer()
	var results []figures.Result
	for i := 0; i < b.N; i++ {
		results = figures.All(ds, benchMaxRank)
	}
	b.StopTimer()
	if _, dup := printed.LoadOrStore("figures", true); !dup {
		for _, r := range results {
			fmt.Println(r.Render())
		}
	}
	for _, r := range results {
		if !r.Pass {
			b.Errorf("%s: shape check failed: %s", r.ID, r.Measured)
		}
	}
}

// BenchmarkDatasetStats regenerates the §3 dataset characterization.
func BenchmarkDatasetStats(b *testing.B) {
	ds := benchDataset()
	b.ResetTimer()
	var st analysis.DatasetStats
	for i := 0; i < b.N; i++ {
		st = analysis.ComputeDatasetStats(ds)
	}
	b.StopTimer()
	b.ReportMetric(st.Top10VideoShare, "top10-share")
	b.ReportMetric(st.OverallMissRate, "miss-rate")
	if _, dup := printed.LoadOrStore("datasetstats", true); !dup {
		fmt.Printf("§3 stats: sessions=%d chunks=%d chrome=%.2f firefox=%.2f win=%.2f top10=%.2f miss=%.3f us=%.2f\n\n",
			st.Sessions, st.Chunks, st.BrowserShare["Chrome"], st.BrowserShare["Firefox"],
			st.OSShare["Windows"], st.Top10VideoShare, st.OverallMissRate, st.USClientShare)
	}
}

// BenchmarkSimulation measures the end-to-end simulator itself
// (sessions/op at a small scale).
func BenchmarkSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := session.Execute(workload.Scenario{
			Seed:        uint64(i + 1),
			NumSessions: 300,
			NumPrefixes: 150,
			Catalog:     catalog.Config{NumVideos: 1000},
		}, session.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Dataset.Chunks) == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkRunParallel measures server-slot-sharded scaling of the full
// 6000-session campaign: p1 is the sequential baseline, the higher
// variants run shards concurrently. The traces are byte-identical across
// variants; only wall-clock changes. Compare with e.g.
//
//	go test -run='^$' -bench=BenchmarkRunParallel -benchtime=1x
func BenchmarkRunParallel(b *testing.B) {
	for _, par := range []int{1, 2, 4, 6} {
		par := par
		b.Run(fmt.Sprintf("p%d", par), func(b *testing.B) {
			var chunks int
			for i := 0; i < b.N; i++ {
				res, err := session.Execute(benchScenario(par), session.Options{})
				if err != nil {
					b.Fatal(err)
				}
				chunks = len(res.Dataset.Chunks)
				if chunks == 0 {
					b.Fatal("empty run")
				}
			}
			b.ReportMetric(float64(chunks), "chunks")
			reportChunkRate(b, chunks)
		})
	}
}

// reportChunkRate reports simulated chunks per wall second over the
// bench's timed runs, the throughput figure cmd/benchdiff records next
// to the gated costs.
func reportChunkRate(b *testing.B, chunksPerOp int) {
	b.ReportMetric(float64(chunksPerOp)*float64(b.N)/b.Elapsed().Seconds(), "chunks/s")
}

// BenchmarkStreamingRun contrasts the two record paths on the shared
// 6000-session campaign. collect materializes every ChunkRecord and
// SessionRecord and merges them into a Dataset; stream folds each
// finished session into the telemetry sketches and retains only the
// snapshot. Run with -benchmem: B/op drops with streaming (no dataset
// copy/sort/merge), and the live-heap-MB metric — the heap still
// reachable after the run, i.e. what a bigger campaign would scale — is
// the dataset size in collect mode versus the O(sketch) snapshot in
// stream mode, independent of session count.
//
//	go test -run='^$' -bench=BenchmarkStreamingRun -benchtime=1x -benchmem
func BenchmarkStreamingRun(b *testing.B) {
	measure := func(b *testing.B, run func() (any, uint64)) {
		b.ReportAllocs()
		var retained any
		var chunks uint64
		for i := 0; i < b.N; i++ {
			retained, chunks = run()
		}
		reportChunkRate(b, int(chunks))
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-heap-MB")
		b.ReportMetric(float64(chunks), "chunks")
		runtime.KeepAlive(retained)
	}
	b.Run("collect", func(b *testing.B) {
		measure(b, func() (any, uint64) {
			res, err := session.Execute(benchScenario(0), session.Options{})
			if err != nil {
				b.Fatal(err)
			}
			return res.Dataset, uint64(len(res.Dataset.Chunks))
		})
	})
	b.Run("stream", func(b *testing.B) {
		measure(b, func() (any, uint64) {
			camp := telemetry.NewCampaignWith(telemetry.Config{})
			if _, err := session.Execute(benchScenario(0), session.Options{Sinks: camp.Sink}); err != nil {
				b.Fatal(err)
			}
			sn := camp.Snapshot()
			return sn, sn.Counter(telemetry.CounterChunks)
		})
	})
}

// BenchmarkStreamingRun1M is the scale proof for the streaming path: a
// one-million-session campaign folded into telemetry sketches, no record
// ever materialized. It is deliberately excluded from the CI bench gate
// (minutes of wall clock); run it by hand when touching the runner's
// memory behaviour:
//
//	go test -run='^$' -bench=BenchmarkStreamingRun1M -benchtime=1x -benchmem
//
// Memory expectation (measured on a 2-vCPU host): the post-run live
// heap (live-heap-MB metric) is under 1 MB — just the O(sketch)
// snapshot; the population and every shard's caches and session states
// are garbage by then. The OS footprint (sys-MB metric, ≈ peak RSS)
// lands around 680 MB, dominated by GC headroom over the run's churn.
// Warm caches cost nothing up front (they are seeded, not filled), but
// each shard reserves its cache arenas for its planned chunk count —
// ~99k chunks per shard here, several times the distinct chunks its
// caches end up holding — so the caches' share of the ~3.7 GB this run
// allocates grows with sessions per shard. A collect-mode run at this
// scale would instead
// retain the full trace — ~8.3M ChunkRecords, over 2 GB — before
// analysis even starts.
func BenchmarkStreamingRun1M(b *testing.B) {
	sc := workload.Scenario{
		Seed:              2016,
		NumSessions:       1_000_000,
		NumPrefixes:       25_000,
		MeanWatchedChunks: 12,
		Catalog:           catalog.Config{NumVideos: benchMaxRank},
	}
	b.ReportAllocs()
	var retained any
	var chunks uint64
	for i := 0; i < b.N; i++ {
		camp := telemetry.NewCampaignWith(telemetry.Config{})
		if _, err := session.Execute(sc, session.Options{Sinks: camp.Sink}); err != nil {
			b.Fatal(err)
		}
		sn := camp.Snapshot()
		retained, chunks = sn, sn.Counter(telemetry.CounterChunks)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-heap-MB")
	b.ReportMetric(float64(ms.Sys)/(1<<20), "sys-MB")
	b.ReportMetric(float64(chunks), "chunks")
	runtime.KeepAlive(retained)
}

// --- Micro-benchmarks on the substrates -----------------------------------

// BenchmarkTCPTransfer times one tcpmodel chunk transfer. clean is a
// lossless, jitter-free 20 Mbps path, which never reaches the loss draws.
// residential and enterprise cycle over 64 connections on netpath session
// paths (jitter, random loss, receive windows; no congestion episodes),
// each transfer a chunk of the default ladder after a 2 s idle gap.
func BenchmarkTCPTransfer(b *testing.B) {
	b.Run("clean", func(b *testing.B) {
		p := tcpmodel.Params{BaseRTTms: 40, BottleneckKbps: 20000}
		c := tcpmodel.New(p, stats.NewRand(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Transfer(750000)
		}
	})
	profiles := []struct {
		name    string
		profile func(propRTTms float64, r *stats.Rand) netpath.Profile
	}{
		{"residential", netpath.ResidentialProfile},
		{"enterprise", netpath.EnterpriseProfile},
	}
	r := stats.NewRand(1)
	ladder := catalog.New(catalog.Config{NumVideos: 1}, r).Bitrates
	sizes := make([]int64, len(ladder))
	for i, kbps := range ladder {
		sizes[i] = catalog.ChunkSizeBytes(kbps, 6)
	}
	for _, pr := range profiles {
		conns := make([]tcpmodel.Conn, 64)
		for i := range conns {
			path := pr.profile(r.Uniform(5, 60), r).SessionParams(r)
			conns[i] = tcpmodel.New(path, r.Split())
		}
		b.Run(pr.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := &conns[i%len(conns)]
				c.AdvanceIdle(2000)
				c.Transfer(sizes[(i/len(conns)+i)%len(sizes)])
			}
		})
	}
}

func BenchmarkLRUCache(b *testing.B) {
	p := cache.NewLRU(1 << 30)
	r := stats.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := uint64(r.Intn(100000))
		if !p.Get(key) {
			p.Put(key, 750000)
		}
	}
}

func BenchmarkEq4Detection(b *testing.B) {
	sessions := benchDataset().SessionChunks()[:200]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sessions {
			core.DetectStackOutliers(s)
		}
	}
}
