package core

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"vidperf/internal/stats"
)

func sampleChunk() ChunkRecord {
	return ChunkRecord{
		SessionID: 1, ChunkID: 0,
		DFBms: 150, DLBms: 2000,
		BitrateKbps: 1050, SizeBytes: 787500, DurationSec: 6,
		DwaitMS: 0.2, DopenMS: 0.4, DreadMS: 1.4, DBEms: 0,
		CacheHit: true, CacheLevel: "ram",
		CWND: 40, SRTTms: 60, SRTTVarMS: 6, MSS: 1460,
		SegsSent: 540, SegsLost: 5,
		Visible: true, TotalFrames: 180, DroppedFrames: 9,
	}
}

func TestChunkDerivedMetrics(t *testing.T) {
	c := sampleChunk()
	if got := c.DCDNms(); got != 2.0 {
		t.Errorf("DCDN = %v", got)
	}
	if got := c.ServerLatencyMS(); got != 2.0 {
		t.Errorf("server latency = %v", got)
	}
	if got := c.RTT0UpperBoundMS(); got != 148 {
		t.Errorf("rtt0 bound = %v", got)
	}
	// Baseline sample takes SRTT when below the rtt0 bound.
	if got := c.BaselineRTTSampleMS(); got != 60 {
		t.Errorf("baseline = %v", got)
	}
	// perfscore = 6 / 2.15 ≈ 2.79 — a good chunk.
	if got := c.PerfScore(); math.Abs(got-6/2.15) > 1e-9 {
		t.Errorf("perfscore = %v", got)
	}
	if got := c.LossRate(); math.Abs(got-5.0/540) > 1e-12 {
		t.Errorf("loss rate = %v", got)
	}
	if got := c.InstantThroughputKbps(); math.Abs(got-787500*8/2000.0) > 1e-9 {
		t.Errorf("tp inst = %v", got)
	}
	if got := c.ConnThroughputKbps(); math.Abs(got-1460*40*8/60.0) > 1e-9 {
		t.Errorf("eq3 = %v", got)
	}
	if got := c.DroppedFrac(); got != 0.05 {
		t.Errorf("dropped frac = %v", got)
	}
	if got := LatencyShare(c); math.Abs(got-150.0/2150) > 1e-12 {
		t.Errorf("latency share = %v", got)
	}
}

func TestEdgeCaseMetrics(t *testing.T) {
	var c ChunkRecord
	if c.LossRate() != 0 || c.PerfScore() != 0 || c.InstantThroughputKbps() != 0 ||
		c.ConnThroughputKbps() != 0 || c.DroppedFrac() != 0 || LatencyShare(c) != 0 {
		t.Error("zero-value chunk metrics should be 0")
	}
	c.DFBms = 1 // DCDN 0, rtt0 bound 1
	if c.RTT0UpperBoundMS() != 1 {
		t.Error("rtt0 bound wrong")
	}
	c.DBEms = 5 // bound would be negative
	if c.RTT0UpperBoundMS() != 0 {
		t.Error("negative rtt0 bound should clamp to 0")
	}
}

func TestEstimateDDS(t *testing.T) {
	c := sampleChunk()
	// RTO_paper = 200 + 60 + 24 = 284; DFB - 2 - 284 < 0 -> no evidence.
	if got := EstimateDDSms(c); got != 0 {
		t.Errorf("clean chunk DDS estimate = %v", got)
	}
	c.DFBms = 1500 // stack-delayed chunk
	want := 1500 - 2 - 284.0
	if got := EstimateDDSms(c); math.Abs(got-want) > 1e-9 {
		t.Errorf("DDS estimate = %v, want %v", got, want)
	}
}

func TestDetectStackOutliers(t *testing.T) {
	r := stats.NewRand(3)
	var chunks []ChunkRecord
	for i := 0; i < 20; i++ {
		c := sampleChunk()
		c.ChunkID = i
		c.DFBms = 140 + r.Uniform(0, 20)
		c.DLBms = 1900 + r.Uniform(0, 200)
		chunks = append(chunks, c)
	}
	// Inject the Fig. 17 signature at chunk 7: huge DFB, tiny DLB
	// (=> huge TPinst), ordinary SRTT/server/CWND.
	chunks[7].DFBms = 2600
	chunks[7].DLBms = 40
	rep := DetectStackOutliers(chunks)
	if len(rep.Outliers) != 1 || rep.Outliers[0] != 7 {
		t.Fatalf("outliers = %v, want [7]", rep.Outliers)
	}
}

func TestDetectStackOutliersIgnoresNetworkSpikes(t *testing.T) {
	r := stats.NewRand(4)
	var chunks []ChunkRecord
	for i := 0; i < 20; i++ {
		c := sampleChunk()
		c.ChunkID = i
		c.DFBms = 140 + r.Uniform(0, 20)
		chunks = append(chunks, c)
	}
	// A genuine network-latency spike: DFB up AND SRTT up -> not a stack
	// problem, must not be flagged.
	chunks[5].DFBms = 2600
	chunks[5].DLBms = 40
	chunks[5].SRTTms = 900
	rep := DetectStackOutliers(chunks)
	for _, idx := range rep.Outliers {
		if idx == 5 {
			t.Fatal("network spike misattributed to the download stack")
		}
	}
}

func TestDetectStackOutliersShortSession(t *testing.T) {
	if got := DetectStackOutliers(make([]ChunkRecord, 3)); len(got.Outliers) != 0 {
		t.Error("short session should yield nothing")
	}
}

func TestComputeSessionChunkStats(t *testing.T) {
	a := sampleChunk()
	b := sampleChunk()
	b.ChunkID = 1
	b.SegsLost = 0
	b.SRTTms = 50
	cs := ComputeSessionChunkStats([]ChunkRecord{a, b})
	if cs.TotalSent != 1080 || cs.TotalLost != 5 {
		t.Errorf("totals = %+v", cs)
	}
	if !cs.AnyLoss {
		t.Error("loss not detected")
	}
	if math.Abs(cs.FirstLossRate-5.0/540) > 1e-12 {
		t.Errorf("first loss rate = %v", cs.FirstLossRate)
	}
	if cs.BaselineRTTms != 50 {
		t.Errorf("baseline = %v", cs.BaselineRTTms)
	}
	if math.Abs(cs.RetxRate()-5.0/1080) > 1e-12 {
		t.Errorf("retx rate = %v", cs.RetxRate())
	}
	empty := ComputeSessionChunkStats(nil)
	if empty.BaselineRTTms != 0 || empty.RetxRate() != 0 {
		t.Error("empty session stats wrong")
	}
}

// TestIPMismatch pins the §3 rule-(i) predicate: only a present HTTP
// client IP that differs from the beacon IP is a mismatch.
func TestIPMismatch(t *testing.T) {
	cases := []struct {
		http, beacon string
		want         bool
	}{
		{"10.0.0.1", "10.0.0.1", false},
		{"proxy-X", "10.0.0.1", true},
		{"10.0.0.1", "", true},
		{"", "10.0.0.1", false},
		{"", "", false},
	}
	for _, c := range cases {
		s := SessionRecord{HTTPClientIP: c.http, BeaconIP: c.beacon}
		if got := s.IPMismatch(); got != c.want {
			t.Errorf("IPMismatch(http=%q, beacon=%q) = %v, want %v", c.http, c.beacon, got, c.want)
		}
	}
}

func TestDatasetIndexAndLookup(t *testing.T) {
	d := &Dataset{
		Sessions: []SessionRecord{{SessionID: 5}, {SessionID: 9}},
		Chunks:   []ChunkRecord{{SessionID: 5}, {SessionID: 9}, {SessionID: 5, ChunkID: 1}},
	}
	if s := d.Session(9); s == nil || s.SessionID != 9 {
		t.Error("Session lookup failed")
	}
	if d.Session(404) != nil {
		t.Error("missing session should be nil")
	}
	g := d.SessionChunks()
	if len(g) != 2 || len(g[0]) != 2 || len(g[1]) != 1 {
		t.Errorf("grouping = %v", g)
	}
	if !strings.Contains(d.String(), "2 sessions") {
		t.Errorf("String() = %q", d.String())
	}
}

func TestCSVExports(t *testing.T) {
	var cb, sb bytes.Buffer
	if err := WriteChunksCSV(&cb, []ChunkRecord{sampleChunk()}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("chunk csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "session_id,chunk_id,dfb_ms") {
		t.Errorf("chunk header = %q", lines[0])
	}
	if strings.Contains(lines[0], "truth") {
		t.Error("ground truth leaked into CSV export")
	}
	if err := WriteSessionsCSV(&sb, []SessionRecord{{SessionID: 3, Browser: "Firefox"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Firefox") {
		t.Error("session csv missing data")
	}
}

func sampleSession(id uint64) SessionRecord {
	return SessionRecord{
		SessionID: id, HTTPClientIP: "10.0.0.1", BeaconIP: "10.0.0.1",
		UserAgent: "ua", OS: "Windows", Browser: "Chrome", PopularBrowser: true,
		VideoID: 7, VideoRank: 3, VideoLenSec: 600, NumChunks: 2,
		PrefixID: 4, Prefix: "prefix-0004/24", Country: "US", US: true,
		PoP: 1, ServerID: 19, OrgName: "ResidentialISP#1", OrgType: "residential",
		ConnType: "cable", DistanceKM: 120.5,
		StartupMS: 900, RebufCount: 1, RebufDurMS: 300, RebufferRate: 0.01,
		AvgBitrateKbps: 1750, PlayedSec: 55,
		SRTTMinMS: 40, SRTTMeanMS: 45, SRTTStdMS: 2, SRTTCV: 0.04,
		RetxRate: 0.001, HadLoss: true, GPU: true, CPUCores: 4, CPULoad: 0.2,
	}
}

// TestJSONLRoundTrip checks that a write/read cycle reproduces the
// dataset exactly, including the NaN startup time of sessions that never
// began playback (encoded as null on the wire).
func TestJSONLRoundTrip(t *testing.T) {
	ds := &Dataset{Sessions: []SessionRecord{sampleSession(1), sampleSession(2)}}
	ds.Sessions[1].StartupMS = math.NaN()
	c0 := sampleChunk()
	c1 := sampleChunk()
	c1.ChunkID = 1
	c1.CacheHit = false
	c1.CacheLevel = "miss"
	c1.DBEms = 80
	ds.Chunks = []ChunkRecord{c0, c1}
	ds.Index()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, ds); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(got.Sessions) != 2 || len(got.Chunks) != 2 {
		t.Fatalf("round trip lost records: %s", got)
	}
	if got.Sessions[0] != ds.Sessions[0] {
		t.Errorf("session 1 changed:\n got %+v\nwant %+v", got.Sessions[0], ds.Sessions[0])
	}
	if !math.IsNaN(got.Sessions[1].StartupMS) {
		t.Errorf("NaN startup came back as %v", got.Sessions[1].StartupMS)
	}
	// Compare session 2 field-wise around the NaN (NaN != NaN).
	s2 := got.Sessions[1]
	s2.StartupMS = 0
	want2 := ds.Sessions[1]
	want2.StartupMS = 0
	if s2 != want2 {
		t.Errorf("session 2 changed:\n got %+v\nwant %+v", s2, want2)
	}
	for i := range got.Chunks {
		if got.Chunks[i] != ds.Chunks[i] {
			t.Errorf("chunk %d changed:\n got %+v\nwant %+v", i, got.Chunks[i], ds.Chunks[i])
		}
	}
	// A second write must be byte-identical (the determinism contract the
	// sharded runner's tests rely on).
	var buf2 bytes.Buffer
	if err := WriteJSONL(&buf2, got); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("write -> read -> write is not byte-stable")
	}
}

// TestCSVRoundTrip parses the CSV exports back and spot-checks that the
// tables carry the same rows and key fields.
func TestCSVRoundTrip(t *testing.T) {
	sessions := []SessionRecord{sampleSession(1), sampleSession(9)}
	chunks := []ChunkRecord{sampleChunk()}

	var cb bytes.Buffer
	if err := WriteChunksCSV(&cb, chunks); err != nil {
		t.Fatalf("WriteChunksCSV: %v", err)
	}
	rows, err := csv.NewReader(&cb).ReadAll()
	if err != nil {
		t.Fatalf("parse chunks csv: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("chunk csv rows = %d, want header+1", len(rows))
	}
	if len(rows[0]) != len(rows[1]) {
		t.Fatalf("header has %d cols, row has %d", len(rows[0]), len(rows[1]))
	}
	if rows[1][0] != "1" || rows[1][1] != "0" {
		t.Errorf("chunk key columns = %v", rows[1][:2])
	}
	if rows[1][11] != "1" || rows[1][12] != "ram" {
		t.Errorf("cache columns = %v", rows[1][11:13])
	}

	var sb bytes.Buffer
	if err := WriteSessionsCSV(&sb, sessions); err != nil {
		t.Fatalf("WriteSessionsCSV: %v", err)
	}
	srows, err := csv.NewReader(&sb).ReadAll()
	if err != nil {
		t.Fatalf("parse sessions csv: %v", err)
	}
	if len(srows) != 3 {
		t.Fatalf("session csv rows = %d, want header+2", len(srows))
	}
	if srows[1][0] != "1" || srows[2][0] != "9" {
		t.Errorf("session ids = %v, %v", srows[1][0], srows[2][0])
	}
	if len(srows[0]) != len(srows[1]) {
		t.Fatalf("header has %d cols, row has %d", len(srows[0]), len(srows[1]))
	}
}

// TestSortCanonicalOrder checks the canonical order every writer emits:
// the order records arrive in must not affect the sorted dataset.
func TestSortCanonicalOrder(t *testing.T) {
	mk := func(ids ...uint64) *Dataset {
		d := &Dataset{}
		for _, id := range ids {
			d.Sessions = append(d.Sessions, sampleSession(id))
			for ci := 1; ci >= 0; ci-- {
				c := sampleChunk()
				c.SessionID = id
				c.ChunkID = ci
				d.Chunks = append(d.Chunks, c)
			}
		}
		d.SortCanonical()
		d.Index()
		return d
	}
	a, b := mk(3, 1, 4, 2), mk(2, 4, 1, 3)
	if len(a.Sessions) != 4 || len(a.Chunks) != 8 {
		t.Fatalf("sizes wrong: %s", a)
	}
	for i := range a.Sessions {
		if a.Sessions[i].SessionID != uint64(i+1) {
			t.Fatalf("sessions not in canonical order: %d at %d", a.Sessions[i].SessionID, i)
		}
		if a.Sessions[i] != b.Sessions[i] {
			t.Fatal("sorted sessions depend on arrival order")
		}
	}
	for i := range a.Chunks {
		if c := a.Chunks[i]; c.SessionID != uint64(i/2+1) || c.ChunkID != i%2 {
			t.Fatalf("chunk %d is (%d, %d), not canonical", i, c.SessionID, c.ChunkID)
		}
		if a.Chunks[i] != b.Chunks[i] {
			t.Fatal("sorted chunks depend on arrival order")
		}
	}
	if a.Session(3) == nil || a.Session(3).SessionID != 3 {
		t.Error("sorted dataset not indexed")
	}
}

// TestSessionsCSVNeverStarted checks the NaN handling of the session CSV
// sink: never-started sessions must serialize startup_ms as an empty
// field (parity with the JSONL null), never the literal NaN.
func TestSessionsCSVNeverStarted(t *testing.T) {
	sessions := []SessionRecord{sampleSession(1), sampleSession(2)}
	sessions[1].StartupMS = math.NaN()

	var buf bytes.Buffer
	if err := WriteSessionsCSV(&buf, sessions); err != nil {
		t.Fatalf("WriteSessionsCSV: %v", err)
	}
	if s := buf.String(); strings.Contains(s, "NaN") {
		t.Fatal("CSV export contains the literal string NaN")
	}
	rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	startupCol := -1
	for i, col := range rows[0] {
		if col == "startup_ms" {
			startupCol = i
		}
	}
	if startupCol < 0 {
		t.Fatal("no startup_ms column")
	}
	if rows[1][startupCol] != "900" {
		t.Errorf("started session startup_ms = %q", rows[1][startupCol])
	}
	if rows[2][startupCol] != "" {
		t.Errorf("never-started session startup_ms = %q, want empty", rows[2][startupCol])
	}
}
