package analysis

// Unit tests on hand-built datasets (no simulation), covering edge cases
// the integration tests cannot isolate.

import (
	"math"
	"testing"

	"vidperf/internal/core"
)

// tinyDataset builds a fully hand-specified dataset: two sessions, one
// clean and one lossy/rebuffering.
func tinyDataset() *core.Dataset {
	d := &core.Dataset{
		Sessions: []core.SessionRecord{
			{
				SessionID: 1, US: true, PrefixID: 10, PoP: 0, OrgName: "ISP-A",
				OrgType: "residential", Browser: "Chrome", OS: "Windows",
				PopularBrowser: true, VideoRank: 0, NumChunks: 2,
				StartupMS: 900, AvgBitrateKbps: 3000, RebufferRate: 0,
				SRTTMinMS: 30, SRTTMeanMS: 35, SRTTStdMS: 3, SRTTCV: 0.086,
				RetxRate: 0, HadLoss: false, ServerID: 1,
			},
			{
				SessionID: 2, US: true, PrefixID: 11, PoP: 0, OrgName: "Corp-X",
				OrgType: "enterprise", Browser: "Safari", OS: "Windows",
				PopularBrowser: true, VideoRank: 100, NumChunks: 2,
				StartupMS: 2500, AvgBitrateKbps: 560, RebufferRate: 0.2,
				SRTTMinMS: 120, SRTTMeanMS: 300, SRTTStdMS: 330, SRTTCV: 1.1,
				RetxRate: 0.06, HadLoss: true, ServerID: 2,
			},
		},
		Chunks: []core.ChunkRecord{
			{SessionID: 1, ChunkID: 0, DFBms: 100, DLBms: 900, BitrateKbps: 3000,
				SizeBytes: 2250000, DurationSec: 6, CacheHit: true, CacheLevel: "ram",
				DwaitMS: 0.1, DopenMS: 0.3, DreadMS: 0.6,
				CWND: 50, SRTTms: 32, SRTTVarMS: 3, MSS: 1460, SegsSent: 1540,
				Visible: true, TotalFrames: 180, DroppedFrames: 2},
			{SessionID: 1, ChunkID: 1, DFBms: 80, DLBms: 800, BitrateKbps: 3000,
				SizeBytes: 2250000, DurationSec: 6, CacheHit: true, CacheLevel: "ram",
				DwaitMS: 0.1, DopenMS: 0.3, DreadMS: 0.5,
				CWND: 60, SRTTms: 33, SRTTVarMS: 3, MSS: 1460, SegsSent: 1540,
				Visible: true, TotalFrames: 180, DroppedFrames: 1},
			{SessionID: 2, ChunkID: 0, DFBms: 600, DLBms: 7000, BitrateKbps: 560,
				SizeBytes: 420000, DurationSec: 6, CacheHit: false, CacheLevel: "miss",
				DwaitMS: 0.2, DopenMS: 0.4, DreadMS: 10.5, DBEms: 85, RetryTimer: true,
				CWND: 12, SRTTms: 280, SRTTVarMS: 60, MSS: 1460,
				SegsSent: 288, SegsLost: 20, BufCount: 1, BufDurMS: 1500,
				Visible: true, TotalFrames: 180, DroppedFrames: 80},
			{SessionID: 2, ChunkID: 1, DFBms: 500, DLBms: 8000, BitrateKbps: 560,
				SizeBytes: 420000, DurationSec: 6, CacheHit: false, CacheLevel: "miss",
				DwaitMS: 0.2, DopenMS: 0.4, DreadMS: 10.8, DBEms: 90, RetryTimer: true,
				CWND: 10, SRTTms: 320, SRTTVarMS: 70, MSS: 1460,
				SegsSent: 288, SegsLost: 15,
				Visible: true, TotalFrames: 180, DroppedFrames: 70},
		},
	}
	d.Index()
	return d
}

func TestBreakdownOnTinyDataset(t *testing.T) {
	br := BreakdownCDNLatency(tinyDataset())
	if br.TotalHit.N() != 2 || br.TotalMiss.N() != 2 {
		t.Fatalf("hit/miss split wrong: %d/%d", br.TotalHit.N(), br.TotalMiss.N())
	}
	if br.RetryTimerChunkShare != 0.5 {
		t.Errorf("retry share = %v, want 0.5", br.RetryTimerChunkShare)
	}
	if br.MedianMissMS < 90 {
		t.Errorf("median miss = %v", br.MedianMissMS)
	}
}

func TestSplitByLossOnTinyDataset(t *testing.T) {
	ls := SplitByLoss(tinyDataset())
	if ls.LenLoss.N() != 1 || ls.LenNoLoss.N() != 1 {
		t.Fatal("session split wrong")
	}
	if ls.NoLossShare != 0.5 {
		t.Errorf("no-loss share = %v", ls.NoLossShare)
	}
	if ls.SubTenPctShare != 1.0 {
		t.Errorf("sub-10%% share = %v (both sessions are <10%% retx)", ls.SubTenPctShare)
	}
}

func TestRetxAndRebufByChunkOnTinyDataset(t *testing.T) {
	d := tinyDataset()
	rates := RetxByChunkID(d, 1)
	// chunk 0: (0 + 20/288)/2 ; chunk 1: (0 + 15/288)/2, in percent.
	want0 := (0 + 20.0/288*100) / 2
	if math.Abs(rates[0]-want0) > 1e-9 {
		t.Errorf("chunk0 retx = %v, want %v", rates[0], want0)
	}
	rb := ComputeRebufByChunkID(d, 1)
	if rb.PRebuf[0] != 50 { // one of two chunk-0s had a rebuffer
		t.Errorf("P(rebuf at 0) = %v, want 50", rb.PRebuf[0])
	}
	if rb.PRebufGivenLoss[0] != 100 { // the only lossy chunk-0 rebuffered
		t.Errorf("P(rebuf|loss at 0) = %v, want 100", rb.PRebufGivenLoss[0])
	}
}

func TestPerfScoreSplitOnTinyDataset(t *testing.T) {
	ps := SplitPerfScores(tinyDataset())
	// Session 1 chunks: 6/(1.0s) = 6 -> good; session 2: 6/7.6, 6/8.5 -> bad.
	if ps.GoodDFB.N() != 2 || ps.BadDFB.N() != 2 {
		t.Fatalf("split %d/%d", ps.GoodDFB.N(), ps.BadDFB.N())
	}
	if ps.BadChunkFrac != 0.5 {
		t.Errorf("bad frac = %v", ps.BadChunkFrac)
	}
}

func TestOrgVariabilityOnTinyDataset(t *testing.T) {
	ov := ComputeOrgVariability(tinyDataset(), 1, 5)
	if len(ov.Top) != 2 {
		t.Fatalf("rows = %d", len(ov.Top))
	}
	if ov.Top[0].OrgName != "Corp-X" || ov.Top[0].Percentage != 100 {
		t.Errorf("top row = %+v", ov.Top[0])
	}
	if ov.ResidentialHighCVPct != 0 {
		t.Errorf("residential = %v", ov.ResidentialHighCVPct)
	}
}

func TestPathVariationMinSessions(t *testing.T) {
	pv := ComputePathVariation(tinyDataset(), 3)
	if pv.Paths != 0 {
		t.Errorf("paths = %d, want 0 (each prefix has one session)", pv.Paths)
	}
	// minSessions below 2 clamps to 2.
	pv = ComputePathVariation(tinyDataset(), 0)
	if pv.Paths != 0 {
		t.Errorf("paths = %d", pv.Paths)
	}
}

func TestBrowserRenderingOnTinyDataset(t *testing.T) {
	rows := ComputeBrowserRendering(tinyDataset())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OS != "Windows" {
			t.Errorf("unexpected OS %s", r.OS)
		}
		if r.ChunkShare != 50 {
			t.Errorf("share = %v, want 50", r.ChunkShare)
		}
	}
	// The two rows tie on share; they must come out in name order on
	// every call, not in map order.
	for i := 0; i < 20; i++ {
		rows := ComputeBrowserRendering(tinyDataset())
		if rows[0].Browser != "Chrome" || rows[1].Browser != "Safari" {
			t.Fatalf("call %d: rows ordered %s, %s; want Chrome, Safari", i, rows[0].Browser, rows[1].Browser)
		}
	}
}

func TestLoadParadoxOnTinyDataset(t *testing.T) {
	lp := ComputeLoadParadox(tinyDataset())
	if len(lp.Points) != 2 {
		t.Fatalf("points = %d", len(lp.Points))
	}
	// Equal request counts -> correlation undefined (NaN) is acceptable;
	// with 2 servers at 2 requests each, counts are equal.
	for _, p := range lp.Points {
		if p.Requests != 2 {
			t.Errorf("server %d requests = %d", p.ServerID, p.Requests)
		}
	}
}

func TestEmptyDatasetSafety(t *testing.T) {
	d := &core.Dataset{}
	d.Index()
	if st := ComputeDatasetStats(d); st.Sessions != 0 {
		t.Error("empty stats wrong")
	}
	if ls := SplitByLoss(d); ls.NoLossShare != 0 {
		t.Error("empty loss split wrong")
	}
	if mp := ComputeMissPersistence(d); mp.SessionsWithMiss != 0 {
		t.Error("empty persistence wrong")
	}
	if so := DetectStackOutliersDataset(d); so.OutlierChunks != 0 {
		t.Error("empty outliers wrong")
	}
	if sv := CompareServerVsNetwork(d); sv.ServerDominatesShare != 0 {
		t.Error("empty server-vs-network wrong")
	}
	if tp := ComputeTailPrefixes(d, 100, 50); tp.TailPrefixes != 0 {
		t.Error("empty tail wrong")
	}
	if rep := ComputeUnpopularBrowsers(d, 1); len(rep.Rows) != 0 {
		t.Error("empty browsers wrong")
	}
}

func TestPearson(t *testing.T) {
	if !math.IsNaN(pearson(nil, nil)) {
		t.Error("empty pearson should be NaN")
	}
	xs := []float64{1, 2, 3, 4}
	if got := pearson(xs, xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("self-correlation = %v", got)
	}
	neg := []float64{4, 3, 2, 1}
	if got := pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("anti-correlation = %v", got)
	}
	if !math.IsNaN(pearson(xs, []float64{5, 5, 5, 5})) {
		t.Error("zero-variance pearson should be NaN")
	}
}
