package analysis

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/core"
	"vidperf/internal/proxydetect"
	"vidperf/internal/session"
	"vidperf/internal/stats"
	"vidperf/internal/workload"
)

var (
	dsOnce sync.Once
	dsMain *core.Dataset
)

// mainDataset simulates one shared, proxy-filtered trace for all analysis
// tests (large enough for stable shapes, small enough for fast tests).
func mainDataset() *core.Dataset {
	dsOnce.Do(func() {
		res, err := session.Execute(workload.Scenario{
			Seed:              2016,
			NumSessions:       6000,
			NumPrefixes:       900,
			MeanWatchedChunks: 12,
			Catalog:           catalog.Config{NumVideos: 3000},
		}, session.Options{})
		if err != nil {
			panic(err)
		}
		raw := res.Dataset
		dsMain = proxydetect.Keep(raw, proxydetect.Detect(raw.Sessions, proxydetect.Config{}))
	})
	return dsMain
}

func TestStartupVsServerLatencyIncreases(t *testing.T) {
	fig := StartupVsServerLatency(mainDataset(), 50, 600)
	if len(fig.Bins) != 12 {
		t.Fatalf("bins = %d", len(fig.Bins))
	}
	first, last := fig.Bins[0], lastNonEmpty(fig.Bins)
	if first.N == 0 || last.N == 0 {
		t.Fatal("empty extremity bins")
	}
	// Medians are robust to the heavy session tail; the additive server
	// latency must show up there.
	if last.Median <= first.Median {
		t.Errorf("median startup should rise with server latency: %.2f -> %.2f",
			first.Median, last.Median)
	}
}

func lastNonEmpty(bins []stats.BinStat) stats.BinStat {
	for i := len(bins) - 1; i >= 0; i-- {
		if bins[i].N > 5 {
			return bins[i]
		}
	}
	return bins[0]
}

func TestCDNBreakdownShape(t *testing.T) {
	br := BreakdownCDNLatency(mainDataset())
	// Paper: median hit ~2 ms, miss ~80 ms (40x), wait/open sub-ms.
	if br.MedianHitMS > 8 {
		t.Errorf("median hit = %.2f ms, want ~2", br.MedianHitMS)
	}
	if br.MedianMissMS < 40 || br.MedianMissMS > 180 {
		t.Errorf("median miss = %.2f ms, want ~80", br.MedianMissMS)
	}
	if br.MedianMissMS/br.MedianHitMS < 10 {
		t.Errorf("miss/hit = %.1f, want order of magnitude", br.MedianMissMS/br.MedianHitMS)
	}
	if br.Dwait.Quantile(0.9) > 2 {
		t.Errorf("p90 Dwait = %.2f ms, want < 1-2 ms", br.Dwait.Quantile(0.9))
	}
	// Bimodal Dread: a low mode (RAM) and a high mode past the 10 ms
	// retry timer.
	if br.Dread.Quantile(0.5) > 8 {
		t.Errorf("median Dread = %.2f, want RAM-fast", br.Dread.Quantile(0.5))
	}
	if br.Dread.Quantile(0.95) < 10 {
		t.Errorf("p95 Dread = %.2f, want past the 10 ms retry", br.Dread.Quantile(0.95))
	}
	if br.RetryTimerChunkShare < 0.10 || br.RetryTimerChunkShare > 0.6 {
		t.Errorf("retry-timer share = %.2f, want ~0.35", br.RetryTimerChunkShare)
	}
}

func TestPopularityGradient(t *testing.T) {
	pts := PerformanceVsPopularity(mainDataset(), []int{0, 1000, 2000, 2500})
	if len(pts) != 4 {
		t.Fatal("missing thresholds")
	}
	// Fig. 6: unpopular videos (higher rank thresholds) miss more and are
	// slower even on hits.
	if pts[len(pts)-1].MissPct <= pts[0].MissPct {
		t.Errorf("miss%% not rising with rank: %.2f -> %.2f",
			pts[0].MissPct, pts[len(pts)-1].MissPct)
	}
	if pts[len(pts)-1].MedianHitServerMS <= pts[0].MedianHitServerMS {
		t.Errorf("hit latency not rising with rank: %.2f -> %.2f",
			pts[0].MedianHitServerMS, pts[len(pts)-1].MedianHitServerMS)
	}
}

func TestMissPersistence(t *testing.T) {
	mp := ComputeMissPersistence(mainDataset())
	if mp.SessionsWithMiss == 0 {
		t.Fatal("no sessions with misses")
	}
	// Paper: mean per-session miss ratio ~60% once one miss occurs.
	if mp.MeanMissRatioGivenMiss < 0.3 {
		t.Errorf("miss persistence = %.2f, want strong clustering (~0.6)",
			mp.MeanMissRatioGivenMiss)
	}
	if mp.MeanHighReadRatioGivenHigh < 0.2 {
		t.Errorf("high-read persistence = %.2f", mp.MeanHighReadRatioGivenHigh)
	}
}

func TestLoadParadoxNegativeCorrelation(t *testing.T) {
	lp := ComputeLoadParadox(mainDataset())
	if len(lp.Points) < 20 {
		t.Fatalf("only %d servers with traffic", len(lp.Points))
	}
	if math.IsNaN(lp.Correlation) || lp.Correlation >= 0 {
		t.Errorf("load/latency correlation = %.3f, want negative (paradox)", lp.Correlation)
	}
}

func TestLatencyDistributionsFig8(t *testing.T) {
	ld := ComputeLatencyDistributions(mainDataset())
	if ld.SRTTMin.N() == 0 || ld.SRTTStd.N() == 0 {
		t.Fatal("empty distributions")
	}
	// Most sessions have a low baseline; a tail exceeds 100 ms.
	if med := ld.SRTTMin.Quantile(0.5); med > 100 {
		t.Errorf("median srtt_min = %.1f, want mostly low", med)
	}
	if tail := ld.SRTTMin.CCDFAt(100); tail <= 0 || tail > 0.45 {
		t.Errorf("P(srtt_min>100ms) = %.3f, want a modest tail", tail)
	}
}

func TestTailPrefixesFig9(t *testing.T) {
	tp := ComputeTailPrefixes(mainDataset(), 100, 80)
	if tp.TailPrefixes == 0 {
		t.Fatal("no tail prefixes found")
	}
	// Paper: 75% of tail prefixes are outside the US (we accept a band —
	// the US/non-US mix at laptop scale is coarser).
	if tp.NonUSShare < 0.2 {
		t.Errorf("non-US share of tail = %.2f, want substantial", tp.NonUSShare)
	}
	// Among close-by US tail prefixes, enterprises must be heavily
	// over-represented (paper: 90%; our short window also catches
	// bufferbloated DSL prefixes the paper's 18-day minimum filters out,
	// so the share is lower — see EXPERIMENTS.md).
	if tp.CloseUSCount > 5 && tp.CloseUSEnterpriseShare < 0.3 {
		t.Errorf("close-by US tail enterprise share = %.2f, want dominant",
			tp.CloseUSEnterpriseShare)
	}
}

func TestPathVariationFig10(t *testing.T) {
	pv := ComputePathVariation(mainDataset(), 3)
	if pv.Paths < 50 {
		t.Fatalf("only %d paths", pv.Paths)
	}
	// Paper: ~40% of (prefix, PoP) paths show CV > 1. Our 30-minute
	// arrival window cannot reproduce 18 days of diurnal spread, so the
	// share is structurally lower; the distribution must still be
	// heavy-tailed with a non-trivial high-CV mass (see EXPERIMENTS.md).
	if pv.HighCVShare < 0.015 || pv.HighCVShare > 0.7 {
		t.Errorf("high-CV path share = %.3f, want heavy tail (paper 0.4)", pv.HighCVShare)
	}
	if pv.CVs.Quantile(0.99) < 1 {
		t.Errorf("p99 path CV = %.2f, want > 1", pv.CVs.Quantile(0.99))
	}
}

func TestOrgVariabilityTable4(t *testing.T) {
	ov := ComputeOrgVariability(mainDataset(), 20, 5)
	if len(ov.Top) == 0 {
		t.Fatal("no orgs qualified")
	}
	// The top of the list should be enterprises, far above the
	// residential baseline (~1%).
	entAtTop := 0
	for _, row := range ov.Top {
		if row.Enterprise {
			entAtTop++
		}
	}
	if entAtTop < len(ov.Top)/2+1 {
		t.Errorf("only %d/%d top-variability orgs are enterprises", entAtTop, len(ov.Top))
	}
	if ov.Top[0].Percentage < 3*math.Max(ov.ResidentialHighCVPct, 0.2) {
		t.Errorf("top org %.1f%% not ≫ residential %.1f%%",
			ov.Top[0].Percentage, ov.ResidentialHighCVPct)
	}
	if ov.ResidentialHighCVPct > 10 {
		t.Errorf("residential high-CV share %.1f%% too high (paper ~1%%)",
			ov.ResidentialHighCVPct)
	}
}

func TestLossSplitFig11(t *testing.T) {
	ls := SplitByLoss(mainDataset())
	if ls.LenLoss.N() == 0 || ls.LenNoLoss.N() == 0 {
		t.Fatal("loss split empty")
	}
	// Paper: >90% of sessions below 10% retx; ~40% loss-free.
	if ls.SubTenPctShare < 0.85 {
		t.Errorf("sub-10%%-retx share = %.2f, want >0.9", ls.SubTenPctShare)
	}
	if ls.NoLossShare < 0.15 || ls.NoLossShare > 0.8 {
		t.Errorf("no-loss share = %.2f, want ~0.4", ls.NoLossShare)
	}
	// Length and bitrate distributions are similar; rebuffering differs.
	if gap := math.Abs(ls.LenLoss.Quantile(0.5) - ls.LenNoLoss.Quantile(0.5)); gap > 6 {
		t.Errorf("session-length medians too different: %.1f", gap)
	}
	rebufLossTail := ls.RebufLoss.CCDFAt(1) // P(rebuf rate > 1%)
	rebufCleanTail := ls.RebufNoLoss.CCDFAt(1)
	if rebufLossTail <= rebufCleanTail {
		t.Errorf("loss sessions should rebuffer more: %.3f vs %.3f",
			rebufLossTail, rebufCleanTail)
	}
}

func TestRebufVsRetxFig12(t *testing.T) {
	bins := RebufVsRetx(mainDataset(), 2, 10)
	if len(bins) != 5 {
		t.Fatal("bad bins")
	}
	if bins[0].N == 0 {
		t.Fatal("first bin empty")
	}
	hi := bins[len(bins)-1]
	for i := len(bins) - 1; i >= 0; i-- {
		if bins[i].N > 10 {
			hi = bins[i]
			break
		}
	}
	if hi.Mean <= bins[0].Mean {
		t.Errorf("rebuffering not rising with retx: %.3f -> %.3f", bins[0].Mean, hi.Mean)
	}
}

func TestRebufByChunkIDFig14(t *testing.T) {
	rb := ComputeRebufByChunkID(mainDataset(), 20)
	if len(rb.PRebuf) != 21 {
		t.Fatal("bad length")
	}
	// Conditioning on loss raises rebuffering probability, most strongly
	// at the first chunks.
	if rb.PRebufGivenLoss[1] <= rb.PRebuf[1] {
		t.Errorf("conditioning on loss did not raise P(rebuf): %.2f vs %.2f",
			rb.PRebufGivenLoss[1], rb.PRebuf[1])
	}
	early := (rb.PRebufGivenLoss[1] + rb.PRebufGivenLoss[2]) / 2
	late := (rb.PRebufGivenLoss[8] + rb.PRebufGivenLoss[9] + rb.PRebufGivenLoss[10]) / 3
	if early <= late {
		t.Errorf("early-loss impact %.2f not above late %.2f", early, late)
	}
}

func TestRetxByChunkIDFig15(t *testing.T) {
	rates := RetxByChunkID(mainDataset(), 20)
	if rates[0] <= rates[5] || rates[0] <= rates[10] {
		t.Errorf("chunk-0 retx %.3f%% not the maximum (c5=%.3f c10=%.3f)",
			rates[0], rates[5], rates[10])
	}
}

func TestPerfScoreSplitFig16(t *testing.T) {
	ps := SplitPerfScores(mainDataset())
	if ps.BadDLB.N() == 0 || ps.GoodDLB.N() == 0 {
		t.Fatal("perfscore split empty")
	}
	// Bad chunks are throughput-dominated: lower latency share, much
	// larger D_LB; D_FB differs far less than D_LB.
	if ps.BadShare.Quantile(0.5) >= ps.GoodShare.Quantile(0.5) {
		t.Errorf("bad chunks should have lower latency share: %.3f vs %.3f",
			ps.BadShare.Quantile(0.5), ps.GoodShare.Quantile(0.5))
	}
	dlbGap := ps.BadDLB.Quantile(0.5) / ps.GoodDLB.Quantile(0.5)
	dfbGap := ps.BadDFB.Quantile(0.5) / ps.GoodDFB.Quantile(0.5)
	if dlbGap < 2 {
		t.Errorf("bad-chunk D_LB median only %.1fx the good ones", dlbGap)
	}
	if dfbGap > dlbGap {
		t.Errorf("D_FB gap (%.1fx) exceeds D_LB gap (%.1fx): latency, not throughput",
			dfbGap, dlbGap)
	}
}

func TestStackOutlierDetection(t *testing.T) {
	rep := DetectStackOutliersDataset(mainDataset())
	if rep.TruthTotal == 0 {
		t.Skip("no transients generated at this scale")
	}
	if rep.OutlierChunks == 0 {
		t.Fatal("Eq.4 found nothing despite injected transients")
	}
	// Chunk share near the paper's 0.32%, generous band.
	if rep.ChunkShare > 0.02 {
		t.Errorf("outlier chunk share = %.4f, want ~0.003", rep.ChunkShare)
	}
	precision := float64(rep.TruePositives) / float64(rep.OutlierChunks)
	if precision < 0.5 {
		t.Errorf("Eq.4 precision = %.2f against ground truth", precision)
	}
}

func TestPersistentStackTable5(t *testing.T) {
	ps := ComputePersistentStack(mainDataset(), 50, 8)
	if len(ps.Top) == 0 {
		t.Fatal("no platform rows")
	}
	// Paper: 17.6% of chunks with non-zero D_DS; among them the stack
	// usually dominates D_FB (84%).
	if ps.NonZeroShare < 0.03 || ps.NonZeroShare > 0.4 {
		t.Errorf("non-zero D_DS share = %.3f, want ~0.176", ps.NonZeroShare)
	}
	if ps.DominantShare < 0.5 {
		t.Errorf("stack-dominant share = %.2f, want high (~0.84)", ps.DominantShare)
	}
	// Safari off-Mac should rank above Chrome when both qualify.
	pos := map[string]int{}
	for i, row := range ps.Top {
		pos[row.Browser+"/"+row.OS] = i + 1
	}
	if sw, ok := pos["Safari/Windows"]; ok {
		if cw, ok2 := pos["Chrome/Windows"]; ok2 && sw > cw {
			t.Errorf("Safari/Windows (#%d) should rank above Chrome/Windows (#%d)", sw, cw)
		}
	}
}

func TestFirstChunkDFBFig18(t *testing.T) {
	f := ComputeFirstChunkDFB(mainDataset(), EquivalentSetConfig{
		SRTTMinMS: 40, SRTTMaxMS: 80, MaxDCDNms: 5, MinCWND: 10,
	})
	if f.FirstN < 20 || f.OtherN < 20 {
		t.Skipf("equivalent set too small: %d/%d", f.FirstN, f.OtherN)
	}
	// Paper: first chunks' median D_FB ~300 ms above the rest.
	if f.MedianGapMS < 100 {
		t.Errorf("first-chunk D_FB gap = %.0f ms, want ~300", f.MedianGapMS)
	}
}

func TestDDSVsRebuffering(t *testing.T) {
	r := ComputeDDSVsRebuffering(mainDataset())
	if math.IsNaN(r.MeanDDSNoRebuf) {
		t.Fatal("no clean sessions")
	}
	if !math.IsNaN(r.MeanDDSOver10) && r.MeanDDSOver10 <= r.MeanDDSNoRebuf {
		t.Errorf("D_DS should rise with rebuffering: clean %.0f vs >10%% %.0f",
			r.MeanDDSNoRebuf, r.MeanDDSOver10)
	}
}

// TestPerSessionAnalysesDeterministic reruns the analyses that sum floats
// over sessions or servers and requires every rerun to match the first
// bit for bit: a sum taken in Go map order changes its rounding from run
// to run.
func TestPerSessionAnalysesDeterministic(t *testing.T) {
	ds := mainDataset()
	bits := func(xs ...float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	type run struct {
		miss   MissPersistence
		missB  []uint64
		loadB  []uint64
		ddsB   []uint64
		points []ServerLoadPoint
	}
	once := func() run {
		mp, lp, dd := ComputeMissPersistence(ds), ComputeLoadParadox(ds), ComputeDDSVsRebuffering(ds)
		return run{
			miss:   mp,
			missB:  bits(mp.MeanMissRatioGivenMiss, mp.MedianMissRatioGivenMiss, mp.MeanHighReadRatioGivenHigh, mp.MedianHighReadRatioGivenHigh),
			loadB:  bits(lp.Correlation),
			ddsB:   bits(dd.MeanDDSNoRebuf, dd.MeanDDSUnder10, dd.MeanDDSOver10),
			points: lp.Points,
		}
	}
	first := once()
	for i, p := range first.points[1:] {
		prev := first.points[i]
		if p.Requests > prev.Requests || (p.Requests == prev.Requests && p.ServerID <= prev.ServerID) {
			t.Fatalf("Points[%d..%d] = %+v, %+v: want Requests descending, then ServerID ascending", i, i+1, prev, p)
		}
	}
	for i := 1; i < 20; i++ {
		got := once()
		if !reflect.DeepEqual(got.missB, first.missB) || got.miss.SessionsWithMiss != first.miss.SessionsWithMiss {
			t.Fatalf("rerun %d: ComputeMissPersistence %+v, first run %+v", i, got.miss, first.miss)
		}
		if !reflect.DeepEqual(got.loadB, first.loadB) || !reflect.DeepEqual(got.points, first.points) {
			t.Fatalf("rerun %d: ComputeLoadParadox correlation or point order differs from the first run", i)
		}
		if !reflect.DeepEqual(got.ddsB, first.ddsB) {
			t.Fatalf("rerun %d: ComputeDDSVsRebuffering bits %x, first run %x", i, got.ddsB, first.ddsB)
		}
	}
}

func TestDropsVsRateFig19(t *testing.T) {
	f := ComputeDropsVsRate(mainDataset(), 0.5, 5)
	if f.HardwareMeanPct > 2 {
		t.Errorf("hardware bar = %.2f%%, want ~0", f.HardwareMeanPct)
	}
	// Drops fall with rate and flatten past 1.5.
	lowBin, midBin, hiBin := f.Bins[1], f.Bins[2], f.Bins[4] // [0.5,1), [1,1.5), [2,2.5)
	if lowBin.N == 0 || hiBin.N == 0 {
		t.Skip("sparse bins at this scale")
	}
	if !(lowBin.Mean > midBin.Mean && midBin.Mean > hiBin.Mean) {
		t.Errorf("drop curve not decreasing: %.1f %.1f %.1f",
			lowBin.Mean, midBin.Mean, hiBin.Mean)
	}
}

func TestRateHypothesisShares(t *testing.T) {
	rh := CheckRateHypothesis(mainDataset())
	if rh.Chunks == 0 {
		t.Fatal("no software-rendered chunks")
	}
	// Paper: 85.5% confirm, 5.7% low-rate-good, 6.9% high-rate-bad.
	if rh.ConfirmShare < 0.6 {
		t.Errorf("confirm share = %.3f, want high (~0.85)", rh.ConfirmShare)
	}
	if rh.LowRateGoodShare+rh.HighRateBadShare > 0.4 {
		t.Errorf("exceptions = %.3f, want small", rh.LowRateGoodShare+rh.HighRateBadShare)
	}
}

func TestBrowserRenderingFig21(t *testing.T) {
	rows := ComputeBrowserRendering(mainDataset())
	if len(rows) < 4 {
		t.Fatalf("only %d rows", len(rows))
	}
	byKey := map[string]BrowserRenderRow{}
	for _, r := range rows {
		byKey[r.OS+"/"+r.Browser] = r
	}
	cw, ok1 := byKey["Windows/Chrome"]
	fw, ok2 := byKey["Windows/Firefox"]
	if !ok1 || !ok2 {
		t.Fatal("missing major browsers")
	}
	if cw.ChunkShare < 25 || fw.ChunkShare < 20 {
		t.Errorf("browser shares off: chrome %.1f firefox %.1f", cw.ChunkShare, fw.ChunkShare)
	}
	// Integrated-Flash Chrome renders better than Firefox.
	if cw.DroppedPct >= fw.DroppedPct {
		t.Errorf("Chrome drops (%.2f) should be below Firefox (%.2f)",
			cw.DroppedPct, fw.DroppedPct)
	}
}

func TestUnpopularBrowsersFig22(t *testing.T) {
	rep := ComputeUnpopularBrowsers(mainDataset(), 30)
	if len(rep.Rows) == 0 {
		t.Skip("no unpopular-browser rows at this scale")
	}
	for _, row := range rep.Rows {
		if row.DroppedPct <= rep.RestAverage {
			t.Errorf("%s drops %.2f%% not above popular average %.2f%%",
				row.Label, row.DroppedPct, rep.RestAverage)
		}
	}
}

func TestBitrateParadox(t *testing.T) {
	rows := ComputeBitrateRenderingParadox(mainDataset())
	if rows[0].Chunks == 0 || rows[1].Chunks == 0 {
		t.Fatal("bitrate split empty")
	}
	// §4.4-2: high-bitrate chunks ride better connections (lower SRTT
	// variation / retx), so their rendering is no worse.
	if rows[1].MeanSRTTVar > rows[0].MeanSRTTVar {
		t.Errorf("high-bitrate SRTTVar %.2f above low-bitrate %.2f",
			rows[1].MeanSRTTVar, rows[0].MeanSRTTVar)
	}
	if rows[1].MeanRetxPct > rows[0].MeanRetxPct {
		t.Errorf("high-bitrate retx %.3f above low-bitrate %.3f",
			rows[1].MeanRetxPct, rows[0].MeanRetxPct)
	}
}

func TestDatasetStats(t *testing.T) {
	st := ComputeDatasetStats(mainDataset())
	if st.Sessions == 0 || st.Chunks == 0 {
		t.Fatal("empty stats")
	}
	if st.BrowserShare["Chrome"] < 0.3 || st.BrowserShare["Firefox"] < 0.25 {
		t.Errorf("browser mix off: %+v", st.BrowserShare)
	}
	if st.OSShare["Windows"] < 0.8 {
		t.Errorf("Windows share = %.2f", st.OSShare["Windows"])
	}
	if st.Top10VideoShare < 0.5 || st.Top10VideoShare > 0.85 {
		t.Errorf("top-10%% play share = %.2f, want ~0.66", st.Top10VideoShare)
	}
	if st.OverallMissRate <= 0 || st.OverallMissRate > 0.30 {
		t.Errorf("overall miss rate = %.3f, want a few percent", st.OverallMissRate)
	}
	if st.USClientShare < 0.85 {
		t.Errorf("US share = %.2f, want >0.9", st.USClientShare)
	}
	if len(st.RankPlays) == 0 || st.VideoLenCCDF.N() == 0 {
		t.Error("missing Fig. 3 series")
	}
}

func TestServerVsNetwork(t *testing.T) {
	sv := CompareServerVsNetwork(mainDataset())
	// Paper: network dominates for ~95% of chunks; misses are heavily
	// overrepresented where the server dominates.
	if sv.ServerDominatesShare > 0.3 {
		t.Errorf("server dominates %.2f of chunks, want small (~0.05)",
			sv.ServerDominatesShare)
	}
	if sv.MissRateWhenDominates <= sv.MissRateOverall {
		t.Errorf("miss rate when server dominates (%.3f) should exceed overall (%.3f)",
			sv.MissRateWhenDominates, sv.MissRateOverall)
	}
}
