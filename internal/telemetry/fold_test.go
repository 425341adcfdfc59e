package telemetry

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"vidperf/internal/core"
	"vidperf/internal/diagnose"
	"vidperf/internal/timeline"
)

// foldSession is one live, proxied session with a mix of hit and miss
// chunks, so every family of the record path does work.
func foldSession() (core.SessionRecord, []core.ChunkRecord) {
	s := core.SessionRecord{
		SessionID: 7, PoP: 3, OrgType: "enterprise", ArrivalMS: 1500,
		StartupMS: 900, RebufferRate: 0.02, AvgBitrateKbps: 1750,
		Live: true, LiveChannel: 4, LiveSwitches: 1, LiveEdgeLagMS: 300,
		Proxied: true, ProxyCohort: 2, SRTTCV: 0.4,
		HTTPClientIP: "egress-0002", BeaconIP: "10.0.0.9",
	}
	chunks := make([]core.ChunkRecord, 8)
	for i := range chunks {
		c := &chunks[i]
		c.SessionID, c.ChunkID = s.SessionID, i
		c.BitrateKbps = 1750
		c.DFBms, c.DLBms, c.SRTTms = 40+float64(i), 900, 30
		c.DwaitMS, c.DopenMS, c.DreadMS = 0.3, 0.5, 1.2
		c.CacheHit, c.CacheLevel = true, "ram"
		if i%4 == 3 {
			c.CacheHit, c.CacheLevel, c.DBEms, c.RetryTimer = false, "miss", 80, true
		}
	}
	return s, chunks
}

// TestConsumeSessionAllocationFree: with diagnosis, windows, live and
// proxy all on, folding a session into a warmed accumulator allocates
// nothing — every sketch and counter it touches already exists.
func TestConsumeSessionAllocationFree(t *testing.T) {
	a := NewAccumulatorWith(Config{
		SketchK: 32, Diagnose: &diagnose.Config{}, Windows: testWindows(),
		Live: true, Proxy: true,
	})
	s, chunks := foldSession()
	for i := 0; i < 500; i++ {
		a.ConsumeSession(s, chunks)
	}
	if allocs := testing.AllocsPerRun(200, func() { a.ConsumeSession(s, chunks) }); allocs != 0 {
		t.Fatalf("ConsumeSession allocates %v objects per session after warm-up, want 0", allocs)
	}
}

// TestLiveSwitchesPresentAtZero: a live session that never switched
// still puts live_switches in the snapshot, at zero.
func TestLiveSwitchesPresentAtZero(t *testing.T) {
	a := NewAccumulatorWith(Config{SketchK: 32, Live: true})
	s, chunks := foldSession()
	s.LiveSwitches = 0
	a.ConsumeSession(s, chunks)
	n, ok := a.snapshot().Counters[CounterLiveSwitches]
	if !ok || n != 0 {
		t.Fatalf("%s = %d (present %v), want 0 and present", CounterLiveSwitches, n, ok)
	}
	if _, ok := NewAccumulatorWith(Config{SketchK: 32}).snapshot().Counters[CounterLiveSwitches]; ok {
		t.Fatalf("non-live accumulator reports %s", CounterLiveSwitches)
	}
}

// TestReserveRecordsLeavesSnapshotUnchanged: a campaign whose shard
// accumulators get ReserveRecords hints snapshots to the same bytes as
// one whose accumulators get none — with a shard fed exactly its hint,
// one fed far past it (and past k), and one fed nothing. The hint does
// size a sketch's first level 0 (by chunks for the per-chunk sketches,
// by sessions for the others), and an empty sketch still writes no
// levels and no parity.
func TestReserveRecordsLeavesSnapshotUnchanged(t *testing.T) {
	cfg := Config{SketchK: 32, Diagnose: &diagnose.Config{}, Windows: testWindows(), Live: true, Proxy: true}
	s, chunks := foldSession()
	feeds := []struct{ sessions, hintSessions, hintChunks int }{
		{3, 3, 3 * len(chunks)},
		{60, 1, 1},
		{0, 5, 40},
	}
	snap := func(reserve bool) []byte {
		c := NewCampaignWith(cfg)
		for _, f := range feeds {
			sink := c.Sink(0)
			if reserve {
				sink.(core.RecordReserver).ReserveRecords(f.hintSessions, f.hintChunks)
			}
			for i := 0; i < f.sessions; i++ {
				s.SessionID, s.ArrivalMS = uint64(i), float64(i*50%3000)
				chunks[0].DFBms = float64(i)
				sink.ConsumeSession(s, chunks)
			}
		}
		return snapshotBytesOf(t, c.Snapshot())
	}
	if plain, reserved := snap(false), snap(true); !bytes.Equal(plain, reserved) {
		t.Fatal("ReserveRecords changed the snapshot bytes")
	}

	a := NewAccumulatorWith(cfg)
	a.ReserveRecords(1, len(chunks))
	a.ConsumeSession(s, chunks)
	if got := cap(a.core[slotDFB].levels[0]); got != len(chunks) {
		t.Errorf("reserved dfb sketch level 0 has cap %d, want %d", got, len(chunks))
	}
	// Per-session sketches are sized by the session count.
	if got := cap(a.core[slotStartup].levels[0]); got != 1 {
		t.Errorf("reserved startup sketch level 0 has cap %d, want 1", got)
	}
	joinTime := &a.extra[slices.Index(a.shape.names, MetricJoinTimeMS)]
	if got := cap(joinTime.levels[0]); got != 1 {
		t.Errorf("reserved %s sketch level 0 has cap %d, want 1", MetricJoinTimeMS, got)
	}
	if got := cap(joinTime.levels); got != firstLevels {
		t.Errorf("reserved %s sketch has room for %d levels, want %d", MetricJoinTimeMS, got, firstLevels)
	}
	empty := NewSketch(32)
	empty.reserve(make([]float64, 0, 5), make([][]float64, 0, firstLevels))
	got, err := json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(NewSketch(32))
	if !bytes.Equal(got, want) || bytes.Contains(got, []byte("levels")) || bytes.Contains(got, []byte("parity")) {
		t.Errorf("reserved empty sketch writes %s, want %s", got, want)
	}
}

// TestAccumulatorAllocationsBounded: building an accumulator costs a
// fixed number of allocations, and a campaign's shard accumulator does
// not grow with the number of optional sketches — their names are built
// once per campaign, the sketches come from one slab, and the counter map
// is made once at the size the shape bounds.
func TestAccumulatorAllocationsBounded(t *testing.T) {
	few := Config{SketchK: 32, Diagnose: &diagnose.Config{}, Windows: testWindows(), Live: true, Proxy: true}
	many := few
	many.Windows = timeline.Timeline{Phases: []timeline.Phase{
		{Name: "a", StartMS: 100, EndMS: 200}, {Name: "b", StartMS: 300, EndMS: 400},
		{Name: "c", StartMS: 500, EndMS: 600}, {Name: "d", StartMS: 700, EndMS: 800},
	}}.Windows(1000)
	shard := func(cfg Config) float64 {
		c := NewCampaignWith(cfg)
		return testing.AllocsPerRun(50, func() { c.Sink(0) })
	}
	fewAllocs, manyAllocs := shard(few), shard(many)
	standalone := testing.AllocsPerRun(50, func() { NewAccumulatorWith(few) })
	t.Logf("shard accumulator: %v allocs (%d windows), %v allocs (%d windows); NewAccumulatorWith %v allocs",
		fewAllocs, len(few.Windows), manyAllocs, len(many.Windows), standalone)
	if manyAllocs != fewAllocs {
		t.Errorf("shard accumulator allocations grow with the windows: %v for %d, %v for %d",
			fewAllocs, len(few.Windows), manyAllocs, len(many.Windows))
	}
	if fewAllocs > 12 {
		t.Errorf("shard accumulator costs %v allocations, want at most 12", fewAllocs)
	}
	if standalone > 64 {
		t.Errorf("NewAccumulatorWith costs %v allocations, want at most 64", standalone)
	}
}

// TestReservedShardFoldsFirstSession: a reserved shard accumulator with
// every family on folds its first session with no allocation beyond
// the reservation's two slabs — no sketch allocates its level 0 or its
// level headers, and the counter map does not grow.
func TestReservedShardFoldsFirstSession(t *testing.T) {
	c := NewCampaignWith(Config{SketchK: 32, Diagnose: &diagnose.Config{}, Windows: testWindows(), Live: true, Proxy: true})
	s, chunks := foldSession()
	built := testing.AllocsPerRun(50, func() { c.Sink(0) })
	fed := testing.AllocsPerRun(50, func() {
		sink := c.Sink(0)
		sink.(core.RecordReserver).ReserveRecords(10, 10*len(chunks))
		sink.ConsumeSession(s, chunks)
	})
	if fed-built > 2 {
		t.Fatalf("reserving and folding a first session costs %v allocations beyond the accumulator's %v, want 2", fed-built, built)
	}
}
