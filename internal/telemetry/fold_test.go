package telemetry

import (
	"testing"

	"vidperf/internal/core"
	"vidperf/internal/diagnose"
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
