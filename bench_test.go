package vidperf

// bench_test.go regenerates every table and figure in the paper's
// evaluation as a Go benchmark: the first iteration of each bench prints
// the figure's rows/series (paper-reported vs measured) and reports the
// headline value as a custom metric; subsequent iterations time the
// analysis on the shared dataset. Ablation benches at the bottom rerun
// small scenarios under the design alternatives DESIGN.md calls out.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// or a single figure with e.g. -bench=BenchmarkFig05.

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
		benchDS = core.FilterProxies(res.Dataset, core.ProxyFilterConfig{}).Kept
	})
	return benchDS
}

var printed sync.Map

// benchFigure runs build b.N times, printing the rendered figure once.
func benchFigure(b *testing.B, id string, build func(ds *core.Dataset) figures.Result) {
	ds := benchDataset()
	b.ResetTimer()
	var res figures.Result
	for i := 0; i < b.N; i++ {
		res = build(ds)
	}
	b.StopTimer()
	if _, dup := printed.LoadOrStore(id, true); !dup {
		fmt.Println(res.Render())
	}
	if !res.Pass {
		b.Fatalf("%s: shape check failed: %s", id, res.Measured)
	}
}

func BenchmarkFig03(b *testing.B) { benchFigure(b, "fig03", figures.Fig03) }
func BenchmarkFig04(b *testing.B) { benchFigure(b, "fig04", figures.Fig04) }
func BenchmarkFig05(b *testing.B) { benchFigure(b, "fig05", figures.Fig05) }
func BenchmarkFig06(b *testing.B) {
	benchFigure(b, "fig06", func(ds *core.Dataset) figures.Result {
		return figures.Fig06(ds, benchMaxRank)
	})
}
func BenchmarkFig07(b *testing.B)  { benchFigure(b, "fig07", figures.Fig07) }
func BenchmarkFig08(b *testing.B)  { benchFigure(b, "fig08", figures.Fig08) }
func BenchmarkFig09(b *testing.B)  { benchFigure(b, "fig09", figures.Fig09) }
func BenchmarkFig10(b *testing.B)  { benchFigure(b, "fig10", figures.Fig10) }
func BenchmarkTable4(b *testing.B) { benchFigure(b, "table4", figures.Table4) }
func BenchmarkFig11(b *testing.B)  { benchFigure(b, "fig11", figures.Fig11) }
func BenchmarkFig12(b *testing.B)  { benchFigure(b, "fig12", figures.Fig12) }
func BenchmarkFig13(b *testing.B) {
	benchFigure(b, "fig13", func(*core.Dataset) figures.Result { return figures.Fig13() })
}
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14", figures.Fig14) }
func BenchmarkFig15(b *testing.B) { benchFigure(b, "fig15", figures.Fig15) }
func BenchmarkFig16(b *testing.B) { benchFigure(b, "fig16", figures.Fig16) }
func BenchmarkFig17(b *testing.B) {
	benchFigure(b, "fig17", func(*core.Dataset) figures.Result { return figures.Fig17() })
}
func BenchmarkTable5(b *testing.B) { benchFigure(b, "table5", figures.Table5) }
func BenchmarkFig18(b *testing.B)  { benchFigure(b, "fig18", figures.Fig18) }
func BenchmarkFig19(b *testing.B)  { benchFigure(b, "fig19", figures.Fig19) }
func BenchmarkFig20(b *testing.B) {
	benchFigure(b, "fig20", func(*core.Dataset) figures.Result { return figures.Fig20() })
}
func BenchmarkFig21(b *testing.B)  { benchFigure(b, "fig21", figures.Fig21) }
func BenchmarkFig22(b *testing.B)  { benchFigure(b, "fig22", figures.Fig22) }
func BenchmarkTable1(b *testing.B) { benchFigure(b, "table1", figures.Table1) }

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
			camp := telemetry.NewCampaign(0)
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
		camp := telemetry.NewCampaign(0)
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

// --- Ablations (DESIGN.md A1–A6) -----------------------------------------

// BenchmarkAblationCachePolicy compares eviction policies on one Zipf
// chunk stream (§4.1 take-away: GD-Size / perfect-LFU over ATS's LRU).
func BenchmarkAblationCachePolicy(b *testing.B) {
	for _, name := range []string{"lru", "lfu", "perfect-lfu", "gd-size", "gdsf"} {
		b.Run(name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				r := stats.NewRand(99)
				z := stats.NewZipf(2000, 0.9)
				p, _ := cache.NewPolicy(name, 256<<20)
				var st cache.Stats
				for j := 0; j < 60000; j++ {
					key := uint64(z.Sample(r))<<8 | uint64(r.Intn(30))
					if p.Get(key) {
						st.Record(true)
					} else {
						st.Record(false)
						p.Put(key, int64(700000+r.Intn(400000)))
					}
				}
				ratio = st.HitRatio()
			}
			b.ReportMetric(ratio, "hit-ratio")
		})
	}
}

// ablationScenario runs a small campaign with a mutated scenario and
// returns the dataset (cached per label).
var (
	ablMu    sync.Mutex
	ablCache = map[string]*core.Dataset{}
)

func ablationRun(label string, mutate func(*workload.Scenario)) *core.Dataset {
	ablMu.Lock()
	defer ablMu.Unlock()
	if ds, ok := ablCache[label]; ok {
		return ds
	}
	sc := workload.Scenario{
		Seed:        77,
		NumSessions: 1200,
		NumPrefixes: 300,
		Catalog:     catalog.Config{NumVideos: 1500},
	}
	if mutate != nil {
		mutate(&sc)
	}
	res, err := session.Execute(sc, session.Options{})
	if err != nil {
		panic(err)
	}
	ds := res.Dataset
	ablCache[label] = ds
	return ds
}

// BenchmarkAblationRetryTimer sweeps the ATS open-read retry timer
// (§4.1 take-away: lower it for disk reads).
func BenchmarkAblationRetryTimer(b *testing.B) {
	for _, ms := range []float64{10, 5, 2} {
		ms := ms
		b.Run(fmt.Sprintf("retry-%.0fms", ms), func(b *testing.B) {
			var med float64
			for i := 0; i < b.N; i++ {
				ds := ablationRun(fmt.Sprintf("retry%.0f", ms), func(sc *workload.Scenario) {
					sc.Fleet.Server.OpenRetryMS = ms
				})
				br := analysis.BreakdownCDNLatency(ds)
				med = br.Dread.Quantile(0.95)
			}
			b.ReportMetric(med, "p95-dread-ms")
		})
	}
}

// BenchmarkAblationPrefetch toggles next-chunk prefetching after a miss
// and first-chunk pinning (§4.1/§4.3 take-aways).
func BenchmarkAblationPrefetch(b *testing.B) {
	variants := []struct {
		name   string
		mutate func(*workload.Scenario)
	}{
		{"baseline", nil},
		{"prefetch-2", func(sc *workload.Scenario) { sc.Fleet.Server.Prefetch = 2 }},
		{"pin-first-chunks", func(sc *workload.Scenario) { sc.Fleet.Server.PinFirstChunks = true }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var missGivenMiss float64
			var miss float64
			for i := 0; i < b.N; i++ {
				ds := ablationRun("prefetch-"+v.name, v.mutate)
				mp := analysis.ComputeMissPersistence(ds)
				st := analysis.ComputeDatasetStats(ds)
				missGivenMiss = mp.MeanMissRatioGivenMiss
				miss = st.OverallMissRate
			}
			b.ReportMetric(miss, "miss-rate")
			b.ReportMetric(missGivenMiss, "miss-persistence")
		})
	}
}

// BenchmarkAblationPartitioning spreads the hottest titles across a PoP's
// servers (§4.1 load-balancing take-away) and reports the load imbalance.
func BenchmarkAblationPartitioning(b *testing.B) {
	variants := []struct {
		name string
		top  int
	}{{"cache-focused", 0}, {"partition-top10pct", 150}}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var imbalance float64
			for i := 0; i < b.N; i++ {
				ds := ablationRun("part-"+v.name, func(sc *workload.Scenario) {
					sc.Fleet.PartitionTopRanks = v.top
				})
				lp := analysis.ComputeLoadParadox(ds)
				var reqs []float64
				for _, p := range lp.Points {
					reqs = append(reqs, float64(p.Requests))
				}
				imbalance = stats.Max(reqs) / stats.Mean(reqs)
			}
			b.ReportMetric(imbalance, "max/mean-load")
		})
	}
}

// BenchmarkAblationPacing compares unpaced vs paced slow start on the
// first-chunk burst loss (§4.2 take-away after Trickle).
func BenchmarkAblationPacing(b *testing.B) {
	for _, paced := range []bool{false, true} {
		paced := paced
		name := "unpaced"
		if paced {
			name = "paced"
		}
		b.Run(name, func(b *testing.B) {
			var firstLoss float64
			for i := 0; i < b.N; i++ {
				var s stats.Summary
				p := tcpmodel.Params{
					BaseRTTms: 50, BottleneckKbps: 6000,
					BufferBytes: 64 << 10, Pacing: paced,
				}
				for seed := uint64(0); seed < 200; seed++ {
					c := tcpmodel.New(p, stats.NewRand(seed))
					s.Add(c.Transfer(2000000).LossRate())
				}
				firstLoss = s.Mean()
			}
			b.ReportMetric(firstLoss*100, "chunk0-loss-%")
		})
	}
}

// BenchmarkAblationABRSignal compares throughput estimators under
// download-stack distortion (§4.3 recommendations).
func BenchmarkAblationABRSignal(b *testing.B) {
	for _, abr := range []string{"rate-instant", "rate-instant-screened", "rate-smoothed", "server-signal", "hybrid"} {
		abr := abr
		b.Run(abr, func(b *testing.B) {
			var rebuf float64
			for i := 0; i < b.N; i++ {
				ds := ablationRun("abr-"+abr, func(sc *workload.Scenario) {
					sc.ABRName = abr
				})
				var s stats.Summary
				for j := range ds.Sessions {
					s.Add(ds.Sessions[j].RebufferRate)
				}
				rebuf = s.Mean()
			}
			b.ReportMetric(rebuf*100, "rebuf-%")
		})
	}
}

// BenchmarkAblationColdStart contrasts the steady-state (pre-warmed) CDN
// with a cold fleet, showing why warm caches are the regime the paper
// measures.
func BenchmarkAblationColdStart(b *testing.B) {
	for _, cold := range []bool{false, true} {
		cold := cold
		name := "warm"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			var miss float64
			for i := 0; i < b.N; i++ {
				ds := ablationRun("cold-"+name, func(sc *workload.Scenario) {
					sc.ColdStart = cold
				})
				miss = analysis.ComputeDatasetStats(ds).OverallMissRate
			}
			b.ReportMetric(miss*100, "miss-%")
		})
	}
}

// --- Micro-benchmarks on the substrates -----------------------------------

func BenchmarkTCPTransfer(b *testing.B) {
	p := tcpmodel.Params{BaseRTTms: 40, BottleneckKbps: 20000}
	c := tcpmodel.New(p, stats.NewRand(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Transfer(750000)
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
	ds := benchDataset()
	groups := ds.ChunksBySession()
	var sessions [][]core.ChunkRecord
	n := 0
	for _, idxs := range groups {
		if n >= 200 {
			break
		}
		chunks := make([]core.ChunkRecord, 0, len(idxs))
		for _, ci := range idxs {
			chunks = append(chunks, ds.Chunks[ci])
		}
		sessions = append(sessions, chunks)
		n++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sessions {
			core.DetectStackOutliers(s)
		}
	}
}
