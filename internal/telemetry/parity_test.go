package telemetry_test

// parity_test.go pins the streaming and exact paths together: one shared
// campaign runs once with a tee feeding both a materialized Dataset
// and the telemetry Campaign, then every sketch-backed quantile is
// checked against the exact ECDF within the sketch's documented rank
// error, every counter against the exact count, and the snapshot bytes
// against themselves across parallelism settings.

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"vidperf/internal/analysis"
	"vidperf/internal/catalog"
	"vidperf/internal/core"
	"vidperf/internal/session"
	"vidperf/internal/stats"
	"vidperf/internal/telemetry"
	"vidperf/internal/workload"
)

// parityScenario is the shared 6000-session campaign (the same shape
// bench_test.go and the figures tests use).
func parityScenario() workload.Scenario {
	return workload.Scenario{
		Seed:              2016,
		NumSessions:       6000,
		NumPrefixes:       900,
		MeanWatchedChunks: 12,
		Catalog:           catalog.Config{NumVideos: 3000},
	}
}

var (
	parityOnce sync.Once
	parityDS   *core.Dataset
	paritySnap *telemetry.Snapshot
)

// tee fans one record stream out to several sinks in order.
type tee []core.RecordSink

func (t tee) ConsumeSession(s core.SessionRecord, chunks []core.ChunkRecord) {
	for _, sink := range t {
		sink.ConsumeSession(s, chunks)
	}
}

// parityRun executes the shared campaign once, teeing every finished
// session into both paths so they see literally the same records.
func parityRun(t *testing.T) (*core.Dataset, *telemetry.Snapshot) {
	t.Helper()
	parityOnce.Do(func() {
		camp := telemetry.NewCampaignWith(telemetry.Config{})
		// The runner builds every sink in its sequential plan phase, so
		// a plain slice gathers them.
		var parts []*core.Dataset
		_, err := session.Execute(parityScenario(), session.Options{Sinks: func(popID int) core.RecordSink {
			ds := &core.Dataset{}
			parts = append(parts, ds)
			return tee{ds, camp.Sink(popID)}
		}})
		if err != nil {
			panic(err)
		}
		parityDS = &core.Dataset{}
		for _, p := range parts {
			parityDS.Sessions = append(parityDS.Sessions, p.Sessions...)
			parityDS.Chunks = append(parityDS.Chunks, p.Chunks...)
		}
		parityDS.SortCanonical()
		parityDS.Index()
		paritySnap = camp.Snapshot()
	})
	if parityDS == nil || paritySnap == nil {
		t.Fatal("shared campaign failed")
	}
	return parityDS, paritySnap
}

// assertQuantileParity checks that each sketch quantile lands between the
// exact quantiles one rank-error band to either side.
func assertQuantileParity(t *testing.T, name string, sk *telemetry.QuantileSketch, exact []float64) {
	t.Helper()
	if uint64(len(exact)) != sk.N() {
		t.Fatalf("%s: sketch n=%d, exact n=%d", name, sk.N(), len(exact))
	}
	if sk.N() == 0 {
		t.Fatalf("%s: no samples", name)
	}
	e := stats.NewECDF(exact)
	eps := sk.ErrorBound()
	for _, q := range []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		got := sk.Quantile(q)
		lo := e.Quantile(math.Max(0, q-eps))
		hi := e.Quantile(math.Min(1, q+eps))
		if got < lo || got > hi {
			t.Errorf("%s q=%.2f: sketch %v outside exact band [%v, %v] (eps=%.4f)",
				name, q, got, lo, hi, eps)
		}
	}
	if sk.Min() != slices.Min(exact) || sk.Max() != slices.Max(exact) {
		t.Errorf("%s: sketch min/max %v/%v, exact %v/%v",
			name, sk.Min(), sk.Max(), slices.Min(exact), slices.Max(exact))
	}
}

// TestStreamingQuantileParity checks every sketch the accumulator
// maintains against the distribution recomputed from the exact dataset.
func TestStreamingQuantileParity(t *testing.T) {
	ds, sn := parityRun(t)

	var startup, rebuf []float64
	for i := range ds.Sessions {
		s := &ds.Sessions[i]
		if !math.IsNaN(s.StartupMS) {
			startup = append(startup, s.StartupMS)
		}
		rebuf = append(rebuf, s.RebufferRate)
	}
	chunkMetric := func(f func(*core.ChunkRecord) float64, keep func(*core.ChunkRecord) bool) []float64 {
		var out []float64
		for i := range ds.Chunks {
			c := &ds.Chunks[i]
			if keep == nil || keep(c) {
				out = append(out, f(c))
			}
		}
		return out
	}
	hit := func(c *core.ChunkRecord) bool { return c.CacheHit }
	miss := func(c *core.ChunkRecord) bool { return !c.CacheHit }

	assertQuantileParity(t, telemetry.MetricStartupMS, sn.Sketch(telemetry.MetricStartupMS), startup)
	assertQuantileParity(t, telemetry.MetricRebufferRate, sn.Sketch(telemetry.MetricRebufferRate), rebuf)
	assertQuantileParity(t, telemetry.MetricDFBMS, sn.Sketch(telemetry.MetricDFBMS),
		chunkMetric(func(c *core.ChunkRecord) float64 { return c.DFBms }, nil))
	assertQuantileParity(t, telemetry.MetricDLBMS, sn.Sketch(telemetry.MetricDLBMS),
		chunkMetric(func(c *core.ChunkRecord) float64 { return c.DLBms }, nil))
	assertQuantileParity(t, telemetry.MetricSRTTMS, sn.Sketch(telemetry.MetricSRTTMS),
		chunkMetric(func(c *core.ChunkRecord) float64 { return c.SRTTms }, nil))
	assertQuantileParity(t, telemetry.MetricServerMS, sn.Sketch(telemetry.MetricServerMS),
		chunkMetric((*core.ChunkRecord).ServerLatencyMS, nil))
	assertQuantileParity(t, telemetry.MetricServerHitMS, sn.Sketch(telemetry.MetricServerHitMS),
		chunkMetric((*core.ChunkRecord).ServerLatencyMS, hit))
	assertQuantileParity(t, telemetry.MetricServerMissMS, sn.Sketch(telemetry.MetricServerMissMS),
		chunkMetric((*core.ChunkRecord).ServerLatencyMS, miss))
	assertQuantileParity(t, telemetry.MetricDwaitMS, sn.Sketch(telemetry.MetricDwaitMS),
		chunkMetric(func(c *core.ChunkRecord) float64 { return c.DwaitMS }, nil))
	assertQuantileParity(t, telemetry.MetricDopenMS, sn.Sketch(telemetry.MetricDopenMS),
		chunkMetric(func(c *core.ChunkRecord) float64 { return c.DopenMS }, nil))
	assertQuantileParity(t, telemetry.MetricDreadMS, sn.Sketch(telemetry.MetricDreadMS),
		chunkMetric(func(c *core.ChunkRecord) float64 { return c.DreadMS }, nil))
}

// TestStreamingCountersExact checks that the dimensioned counters — which
// unlike the sketches are exact — equal the dataset-derived counts.
func TestStreamingCountersExact(t *testing.T) {
	ds, sn := parityRun(t)

	neverStarted := uint64(0)
	orgSessions := map[string]uint64{}
	popChunks := map[int]uint64{}
	popHits := map[int]uint64{}
	for i := range ds.Sessions {
		s := &ds.Sessions[i]
		if math.IsNaN(s.StartupMS) {
			neverStarted++
		}
		orgSessions[s.OrgType]++
	}
	var hits, retries uint64
	levelChunks := map[string]uint64{}
	bitrateChunks := map[int]uint64{}
	for i := range ds.Chunks {
		c := &ds.Chunks[i]
		s := ds.Session(c.SessionID)
		popChunks[s.PoP]++
		if c.CacheHit {
			hits++
			popHits[s.PoP]++
		}
		if c.RetryTimer {
			retries++
		}
		levelChunks[c.CacheLevel]++
		bitrateChunks[c.BitrateKbps]++
	}

	if got := sn.Counter(telemetry.CounterSessions); got != uint64(len(ds.Sessions)) {
		t.Errorf("sessions counter %d, want %d", got, len(ds.Sessions))
	}
	if got := sn.Counter(telemetry.CounterChunks); got != uint64(len(ds.Chunks)) {
		t.Errorf("chunks counter %d, want %d", got, len(ds.Chunks))
	}
	if got := sn.Counter(telemetry.CounterSessionsNeverStart); got != neverStarted {
		t.Errorf("never-started counter %d, want %d", got, neverStarted)
	}
	if got := sn.Counter(telemetry.CounterChunksHit); got != hits {
		t.Errorf("hit counter %d, want %d", got, hits)
	}
	if got := sn.Counter(telemetry.CounterChunksRetryTimer); got != retries {
		t.Errorf("retry counter %d, want %d", got, retries)
	}

	mix := analysis.StreamHitRatios(sn)
	if want := float64(hits) / float64(len(ds.Chunks)); mix.Overall != want {
		t.Errorf("overall hit ratio %v, want %v", mix.Overall, want)
	}
	if len(mix.ByPoP) != len(popChunks) {
		t.Fatalf("%d PoP rows, want %d", len(mix.ByPoP), len(popChunks))
	}
	for _, row := range mix.ByPoP {
		if row.Chunks != popChunks[row.PoP] || row.Hits != popHits[row.PoP] {
			t.Errorf("pop %d: %d/%d chunks/hits, want %d/%d",
				row.PoP, row.Chunks, row.Hits, popChunks[row.PoP], popHits[row.PoP])
		}
	}
	for _, d := range mix.ByLevel {
		if d.N != levelChunks[d.Value] {
			t.Errorf("cache level %q: %d, want %d", d.Value, d.N, levelChunks[d.Value])
		}
	}
	if len(mix.ByLevel) != len(levelChunks) {
		t.Errorf("%d cache levels, want %d", len(mix.ByLevel), len(levelChunks))
	}
	for _, d := range mix.Bitrates {
		if d.N != bitrateChunks[d.IntValue()] {
			t.Errorf("bitrate %d: %d, want %d", d.IntValue(), d.N, bitrateChunks[d.IntValue()])
		}
	}
	for _, d := range mix.Orgs {
		if d.N != orgSessions[d.Value] {
			t.Errorf("org %q: %d, want %d", d.Value, d.N, orgSessions[d.Value])
		}
	}
}

// TestStreamingTableParity compares the headline numbers of the
// sketch-backed Fig. 5 analysis against the exact one.
func TestStreamingTableParity(t *testing.T) {
	ds, sn := parityRun(t)
	exact := analysis.BreakdownCDNLatency(ds)
	stream := analysis.StreamBreakdownCDNLatency(sn)

	if stream.RetryTimerChunkShare != exact.RetryTimerChunkShare {
		t.Errorf("retry share %v, want exact %v",
			stream.RetryTimerChunkShare, exact.RetryTimerChunkShare)
	}
	eps := stream.TotalHit.ErrorBound()
	if lo, hi := exact.TotalHit.Quantile(0.5-eps), exact.TotalHit.Quantile(0.5+eps); stream.MedianHitMS < lo || stream.MedianHitMS > hi {
		t.Errorf("median hit %v outside exact band [%v, %v]", stream.MedianHitMS, lo, hi)
	}
	if lo, hi := exact.TotalMiss.Quantile(0.5-eps), exact.TotalMiss.Quantile(0.5+eps); stream.MedianMissMS < lo || stream.MedianMissMS > hi {
		t.Errorf("median miss %v outside exact band [%v, %v]", stream.MedianMissMS, lo, hi)
	}
	// The paper's headline 40x hit/miss gap must survive sketching.
	if stream.MedianMissMS/stream.MedianHitMS < 10 {
		t.Errorf("hit/miss gap %vx lost in streaming path", stream.MedianMissMS/stream.MedianHitMS)
	}

	// Sketch sums are exact running sums, so the mean they give must
	// match the dataset to float tolerance.
	var rebuf stats.Summary
	for i := range ds.Sessions {
		rebuf.Add(ds.Sessions[i].RebufferRate)
	}
	sk := sn.Sketch(telemetry.MetricRebufferRate)
	if sk.N() != uint64(len(ds.Sessions)) {
		t.Fatalf("rebuffer sketch holds %d sessions, want %d", sk.N(), len(ds.Sessions))
	}
	if mean := sk.Sum() / float64(sk.N()); math.Abs(mean-rebuf.Mean()) > 1e-9 {
		t.Errorf("rebuffer sketch mean %v, exact %v", mean, rebuf.Mean())
	}
}

// TestStreamingByteIdentical is the subsystem's determinism guarantee: a
// streamed campaign serializes to exactly the same snapshot bytes at any
// parallelism, because per-shard insertion orders are deterministic and
// shards merge in canonical PoP order.
func TestStreamingByteIdentical(t *testing.T) {
	snapshotBytes := func(par int) []byte {
		sc := workload.Scenario{
			Seed:        21,
			NumSessions: 1000,
			NumPrefixes: 300,
			Catalog:     catalog.Config{NumVideos: 800},
			Parallelism: par,
		}
		camp := telemetry.NewCampaignWith(telemetry.Config{})
		if _, err := session.Execute(sc, session.Options{Sinks: camp.Sink}); err != nil {
			t.Fatalf("Execute(par=%d): %v", par, err)
		}
		var buf bytes.Buffer
		if err := telemetry.WriteSnapshot(&buf, camp.Snapshot()); err != nil {
			t.Fatalf("WriteSnapshot(par=%d): %v", par, err)
		}
		return buf.Bytes()
	}
	seq := snapshotBytes(1)
	for _, par := range []int{2, 8} {
		if got := snapshotBytes(par); !bytes.Equal(seq, got) {
			t.Fatalf("Parallelism=%d snapshot differs from sequential (%d vs %d bytes)",
				par, len(got), len(seq))
		}
	}
	// And the serialized snapshot must survive a read-write cycle.
	sn, err := telemetry.ReadSnapshot(bytes.NewReader(seq))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteSnapshot(&buf, sn); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, buf.Bytes()) {
		t.Fatal("snapshot read-write cycle not byte-identical")
	}
}
