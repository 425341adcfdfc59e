package session

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/core"
	"vidperf/internal/diagnose"
	"vidperf/internal/proxydetect"
	"vidperf/internal/stats"
	"vidperf/internal/tcpmodel"
	"vidperf/internal/telemetry"
	"vidperf/internal/workload"
)

// smallScenario keeps unit tests fast while exercising every path.
func smallScenario(seed uint64) workload.Scenario {
	return workload.Scenario{
		Seed:        seed,
		NumSessions: 300,
		NumPrefixes: 150,
		Catalog:     catalog.Config{NumVideos: 800},
	}
}

func mustRun(t *testing.T, sc workload.Scenario) *core.Dataset {
	t.Helper()
	res, err := Execute(sc, Options{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res.Dataset
}

func TestRunProducesConsistentDataset(t *testing.T) {
	ds := mustRun(t, smallScenario(1))
	if len(ds.Sessions) != 300 {
		t.Fatalf("sessions = %d", len(ds.Sessions))
	}
	if len(ds.Chunks) == 0 {
		t.Fatal("no chunks")
	}
	spans := ds.SessionChunks()
	for i := range ds.Sessions {
		s := &ds.Sessions[i]
		chunks := spans[i]
		if len(chunks) != s.NumChunks {
			t.Fatalf("session %d: %d chunk records vs NumChunks %d",
				s.SessionID, len(chunks), s.NumChunks)
		}
		if s.NumChunks < 1 {
			t.Fatalf("session %d fetched no chunks", s.SessionID)
		}
		for j := range chunks {
			c := &chunks[j]
			if c.ChunkID != j {
				t.Fatalf("session %d chunk order broken at %d", s.SessionID, j)
			}
			if c.DFBms <= 0 || c.DLBms < 0 {
				t.Fatalf("bad delays: %+v", c)
			}
			if c.SizeBytes <= 0 || c.BitrateKbps <= 0 {
				t.Fatalf("bad chunk meta: %+v", c)
			}
			if c.SRTTms <= 0 || c.CWND < 1 || c.MSS == 0 {
				t.Fatalf("missing tcp_info: %+v", c)
			}
			if c.SegsLost > c.SegsSent {
				t.Fatalf("loss accounting: %+v", c)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := mustRun(t, smallScenario(7))
	b := mustRun(t, smallScenario(7))
	if len(a.Chunks) != len(b.Chunks) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a.Chunks), len(b.Chunks))
	}
	for i := range a.Chunks {
		if a.Chunks[i] != b.Chunks[i] {
			t.Fatalf("chunk %d differs between identical runs", i)
		}
	}
}

// TestParallelismByteIdentical is the tentpole guarantee: a sharded run
// at any parallelism serializes to exactly the bytes of the sequential
// run at the same seed.
func TestParallelismByteIdentical(t *testing.T) {
	serialize := func(par int) []byte {
		sc := smallScenario(21)
		sc.Parallelism = par
		ds := mustRun(t, sc)
		var buf bytes.Buffer
		if err := core.WriteJSONL(&buf, ds); err != nil {
			t.Fatalf("WriteJSONL(par=%d): %v", par, err)
		}
		return buf.Bytes()
	}
	seq := serialize(1)
	for _, par := range []int{2, 8} {
		if got := serialize(par); !bytes.Equal(seq, got) {
			t.Fatalf("Parallelism=%d trace differs from sequential (%d vs %d bytes)",
				par, len(got), len(seq))
		}
	}
}

// TestRunShardsCoverEverySession checks the plan phase: the slot
// partition must neither drop nor duplicate sessions.
func TestRunShardsCoverEverySession(t *testing.T) {
	ds := mustRun(t, smallScenario(23))
	seen := map[uint64]bool{}
	for i := range ds.Sessions {
		id := ds.Sessions[i].SessionID
		if seen[id] {
			t.Fatalf("session %d appears twice", id)
		}
		seen[id] = true
	}
	for id := uint64(1); id <= 300; id++ {
		if !seen[id] {
			t.Fatalf("session %d missing from merged dataset", id)
		}
	}
}

// TestFewerPoPsServeOnTheirOwnServers: with Fleet.NumPoPs below the
// default, every session is served by a server of the PoP its record
// names, and that PoP is one the fleet has. PoP counts outside the
// default PoP list are rejected.
func TestFewerPoPsServeOnTheirOwnServers(t *testing.T) {
	sc := smallScenario(3)
	sc.Fleet.NumPoPs = 3
	ds := mustRun(t, sc)
	perPoP := sc.Fleet.WithDefaults().ServersPerPoP
	for i := range ds.Sessions {
		s := &ds.Sessions[i]
		if s.PoP < 0 || s.PoP >= 3 || s.ServerID/perPoP != s.PoP {
			t.Fatalf("session %d: record PoP %d, server %d (PoP %d) in a 3-PoP fleet",
				s.SessionID, s.PoP, s.ServerID, s.ServerID/perPoP)
		}
	}
	for _, n := range []int{-1, 7} {
		sc.Fleet.NumPoPs = n
		if _, err := Execute(sc, Options{}); err == nil {
			t.Errorf("Execute accepted NumPoPs %d", n)
		}
	}
}

func TestRunUnknownABRReturnsError(t *testing.T) {
	sc := smallScenario(1)
	sc.ABRName = "definitely-not-an-abr"
	if _, err := Execute(sc, Options{}); err == nil {
		t.Fatal("Run accepted an unknown ABR name")
	}
}

func TestEquationOneComposition(t *testing.T) {
	// D_FB must decompose per Eq. 1: rtt0 = DFB − DCDN − DBE − DDS > 0,
	// and the analysis-visible upper bound must cover the truth.
	ds := mustRun(t, smallScenario(3))
	for i := range ds.Chunks {
		c := &ds.Chunks[i]
		rtt0 := c.DFBms - c.DCDNms() - c.DBEms - c.TruthDDSms
		if rtt0 <= 0 {
			t.Fatalf("Eq.1 violated: rtt0=%v for %+v", rtt0, c)
		}
		if c.RTT0UpperBoundMS() < rtt0-1e-9 {
			t.Fatalf("rtt0 upper bound %v below truth %v", c.RTT0UpperBoundMS(), rtt0)
		}
	}
}

func TestQoEMetricsSane(t *testing.T) {
	ds := mustRun(t, smallScenario(5))
	startups := 0
	for i := range ds.Sessions {
		s := &ds.Sessions[i]
		if !math.IsNaN(s.StartupMS) {
			startups++
			if s.StartupMS <= 0 {
				t.Fatalf("non-positive startup %v", s.StartupMS)
			}
		}
		if s.RebufferRate < 0 || s.RebufferRate > 1 {
			t.Fatalf("rebuffer rate %v", s.RebufferRate)
		}
		if s.AvgBitrateKbps < 235 || s.AvgBitrateKbps > 3000 {
			t.Fatalf("avg bitrate %v off ladder range", s.AvgBitrateKbps)
		}
		if s.SRTTMinMS <= 0 || s.SRTTMeanMS < s.SRTTMinMS {
			t.Fatalf("srtt summary wrong: %+v", s)
		}
	}
	if startups < 290 {
		t.Errorf("only %d/300 sessions started playback", startups)
	}
}

func TestFirstChunkRetxHigher(t *testing.T) {
	// Fig. 15's shape must survive end-to-end.
	ds := mustRun(t, workload.Scenario{Seed: 11, NumSessions: 1500, NumPrefixes: 300, Catalog: catalog.Config{NumVideos: 1500}})
	var first, later stats.Summary
	for i := range ds.Chunks {
		c := &ds.Chunks[i]
		if c.ChunkID == 0 {
			first.Add(c.LossRate())
		} else if c.ChunkID >= 2 {
			later.Add(c.LossRate())
		}
	}
	if first.Mean() <= later.Mean() {
		t.Errorf("first-chunk retx %.4f not above later %.4f", first.Mean(), later.Mean())
	}
}

func TestCacheMissesCostMore(t *testing.T) {
	ds := mustRun(t, smallScenario(13))
	var hit, miss stats.Summary
	for i := range ds.Chunks {
		c := &ds.Chunks[i]
		if c.CacheHit {
			hit.Add(c.ServerLatencyMS())
		} else {
			miss.Add(c.ServerLatencyMS())
		}
	}
	if miss.N() == 0 || hit.N() == 0 {
		t.Fatal("expected both hits and misses")
	}
	if miss.Mean() < 3*hit.Mean() {
		t.Errorf("miss latency %.1f not ≫ hit %.1f", miss.Mean(), hit.Mean())
	}
}

func TestProxyMixSupportsPreprocessing(t *testing.T) {
	ds := mustRun(t, workload.Scenario{Seed: 17, NumSessions: 2000, NumPrefixes: 400, Catalog: catalog.Config{NumVideos: 1500}})
	verdicts := proxydetect.Detect(ds.Sessions, proxydetect.Config{})
	kept := proxydetect.Keep(ds, verdicts)
	// Paper: 77% of sessions survive preprocessing. Accept a band.
	if frac := float64(len(kept.Sessions)) / float64(len(ds.Sessions)); frac < 0.6 || frac > 0.92 {
		t.Errorf("kept fraction = %.2f, want ~0.77", frac)
	}
	if proxydetect.Evaluate(ds.Sessions, verdicts).MismatchDetected == 0 {
		t.Error("no IP-mismatch proxies generated")
	}
	if len(kept.Chunks) == 0 {
		t.Error("filtering dropped all chunks")
	}
}

func TestNewABRNames(t *testing.T) {
	for _, name := range []string{"", "hybrid", "rate-smoothed", "rate-instant",
		"rate-instant-screened", "rate-smoothed-screened", "buffer-based",
		"server-signal", "fixed-low", "fixed-high"} {
		if _, err := NewABR(name); err != nil {
			t.Errorf("NewABR(%q): %v", name, err)
		}
	}
	if _, err := NewABR("nope"); err == nil {
		t.Error("unknown ABR accepted")
	}
}

func TestScriptedLossPlacement(t *testing.T) {
	base := Script{
		Seed:   1,
		Path:   tcpParams(),
		Chunks: 10, BitrateKbps: 1050,
		ServerLatencyMS: 2,
	}
	early := base
	early.LossProbByChunk = map[int]float64{0: 0.2}
	late := base
	late.LossProbByChunk = map[int]float64{4: 0.2}

	recsE := RunScripted(early)
	recsL := RunScripted(late)
	if len(recsE) != 10 || len(recsL) != 10 {
		t.Fatal("wrong chunk counts")
	}
	if recsE[0].LossRate() == 0 {
		t.Error("early script placed no loss at chunk 0")
	}
	if recsL[4].LossRate() == 0 {
		t.Error("late script placed no loss at chunk 4")
	}
	for i := 1; i < 10; i++ {
		if i != 4 && recsL[i].SegsLost > recsL[i].SegsSent/10 {
			t.Errorf("late script leaked heavy loss to chunk %d", i)
		}
	}
	// The paper's Fig. 13 claim: early loss rebuffers, late loss does not.
	rebufE, rebufL := 0, 0
	for i := range recsE {
		rebufE += recsE[i].BufCount
		rebufL += recsL[i].BufCount
	}
	if rebufE < rebufL {
		t.Errorf("early-loss session rebuffered less (%d) than late (%d)", rebufE, rebufL)
	}
}

func TestScriptedTransient(t *testing.T) {
	s := Script{
		Seed: 2, Path: tcpParams(),
		Chunks: 22, BitrateKbps: 1750, ServerLatencyMS: 2,
		TransientAtChunk: map[int]float64{7: 1500},
	}
	recs := RunScripted(s)
	c7 := recs[7]
	if !c7.TruthTransient || c7.TruthDDSms != 1500 {
		t.Fatalf("transient not injected: %+v", c7)
	}
	// The signature the Eq. 4 detector looks for: DFB spike + TPinst spike.
	var dfbs, tps []float64
	for i, c := range recs {
		if i != 7 {
			dfbs = append(dfbs, c.DFBms)
			tps = append(tps, c.InstantThroughputKbps())
		}
	}
	if c7.DFBms < stats.Mean(dfbs)+2*stats.Std(dfbs) {
		t.Error("transient chunk DFB not an outlier")
	}
	if c7.InstantThroughputKbps() < stats.Mean(tps)+2*stats.Std(tps) {
		t.Error("transient chunk TPinst not an outlier")
	}
}

func tcpParams() tcpmodel.Params {
	return tcpmodel.Params{
		BaseRTTms:      45,
		JitterMS:       1,
		BottleneckKbps: 12000,
		// Generous buffer so scripted runs only lose where scripted.
		BufferBytes: 4 << 20,
	}
}

// TestExecuteSinksMatchesDataset pins the sink seam: streaming the
// campaign into per-shard Dataset sinks and sorting their union must
// reproduce the materialized dataset mode exactly.
func TestExecuteSinksMatchesDataset(t *testing.T) {
	want := mustRun(t, smallScenario(29))

	// The runner builds every sink in its sequential plan phase, so a
	// plain slice gathers them.
	var parts []*core.Dataset
	_, err := Execute(smallScenario(29), Options{Sinks: func(popID int) core.RecordSink {
		ds := &core.Dataset{}
		parts = append(parts, ds)
		return ds
	}})
	if err != nil {
		t.Fatalf("Execute(Sinks): %v", err)
	}
	got := &core.Dataset{}
	for _, p := range parts {
		got.Sessions = append(got.Sessions, p.Sessions...)
		got.Chunks = append(got.Chunks, p.Chunks...)
	}
	got.SortCanonical()
	got.Index()
	if len(got.Sessions) != len(want.Sessions) || len(got.Chunks) != len(want.Chunks) {
		t.Fatalf("sizes differ: %s vs %s", got, want)
	}
	for i := range want.Chunks {
		if got.Chunks[i] != want.Chunks[i] {
			t.Fatalf("chunk %d differs between sink and collect paths", i)
		}
	}
	for i := range want.Sessions {
		a, b := got.Sessions[i], want.Sessions[i]
		// NaN != NaN, so compare startup separately.
		sa, sb := a.StartupMS, b.StartupMS
		a.StartupMS, b.StartupMS = 0, 0
		if a != b || (math.IsNaN(sa) != math.IsNaN(sb)) || (!math.IsNaN(sa) && sa != sb) {
			t.Fatalf("session %d differs between sink and collect paths", i)
		}
	}
}

// TestExecuteRejectsUnknownABR pins the fail-fast validation: the ABR
// name is checked before any world generation, in every mode.
func TestExecuteRejectsUnknownABR(t *testing.T) {
	sc := smallScenario(1)
	sc.ABRName = "definitely-not-an-abr"
	_, err := Execute(sc, Options{Sinks: func(int) core.RecordSink { return &core.Dataset{} }})
	if err == nil {
		t.Fatal("Execute accepted an unknown ABR name")
	}
}

// TestExecuteRejectsInvalidLadder: a bitrate ladder that would merge two
// rungs into one cache key, or is unsorted, fails before any shard runs.
func TestExecuteRejectsInvalidLadder(t *testing.T) {
	for _, ladder := range [][]int{{235, 239, 750, 1750}, {3000, 750, 235}, {0, 750, 41200}} {
		sc := smallScenario(1)
		sc.Catalog.Bitrates = ladder
		if _, err := Execute(sc, Options{}); err == nil {
			t.Errorf("Execute accepted bitrate ladder %v", ladder)
		}
	}
}

// TestDiagnosisUsesTheRunsLadder: the abr-limited screen measures a
// session's bitrate against the top rung of the run's own ladder. On a
// ladder topping out at 1050 kbps a diagnosed campaign labels every
// session as classifying it against 1050 kbps does; against the default
// ladder's 3000 kbps nearly every smooth session would read abr-limited.
func TestDiagnosisUsesTheRunsLadder(t *testing.T) {
	sc := smallScenario(7)
	sc.NumSessions = 600
	sc.Catalog.Bitrates = []int{235, 375, 560, 750, 1050}
	res, err := Execute(sc, Options{Telemetry: true, Diagnose: true})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	ds := mustRun(t, sc)
	want := map[diagnose.Label]uint64{}
	for i, chunks := range ds.SessionChunks() {
		want[diagnose.Classify(ds.Sessions[i], chunks, diagnose.Config{LadderTopKbps: 1050}).Label]++
	}
	if want[diagnose.Healthy] == 0 {
		t.Fatal("no healthy session against a 1050 kbps top rung; the ladders are not told apart")
	}
	for _, l := range diagnose.Labels() {
		if got := res.Snapshot.Counter(telemetry.DiagSessionsKey(l)); got != want[l] {
			t.Errorf("%s sessions = %d, want %d (classified against the 1050 kbps top rung)", l, got, want[l])
		}
	}
}

// TestExecuteRejectsOutOfRangeScenario: Execute range-checks the
// scenario (workload.Scenario.Validate) before building the population,
// so a negative prefix count is an error rather than a panic in Build.
func TestExecuteRejectsOutOfRangeScenario(t *testing.T) {
	sc := smallScenario(1)
	sc.NumPrefixes = -3
	if _, err := Execute(sc, Options{}); err == nil || !strings.Contains(err.Error(), "prefixes -3") {
		t.Fatalf("Execute with NumPrefixes -3: error %v, want one naming prefixes", err)
	}
}

// TestExecuteRejectsContradictoryOptions: option combinations that
// contradict the selected mode fail fast instead of silently ignoring
// knobs.
func TestExecuteRejectsContradictoryOptions(t *testing.T) {
	sinks := func(int) core.RecordSink { return &core.Dataset{} }
	if _, err := Execute(smallScenario(1), Options{Telemetry: true, Sinks: sinks}); err == nil {
		t.Fatal("Execute accepted Telemetry+Sinks")
	}
	if _, err := Execute(smallScenario(1), Options{SketchK: 64}); err == nil {
		t.Fatal("Execute accepted SketchK without Telemetry")
	}
}
