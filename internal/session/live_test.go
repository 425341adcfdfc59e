package session

import (
	"bytes"
	"sync"
	"testing"

	"vidperf/internal/core"
	"vidperf/internal/live"
	"vidperf/internal/telemetry"
	"vidperf/internal/workload"
)

// steadyLiveScenario mirrors the live-steady preset at test scale on a
// single PoP, so parallelism beyond 1 exercises the per-server-slot
// shards against the shared publish clock.
func steadyLiveScenario(seed uint64, par int) workload.Scenario {
	sc := smallScenario(seed)
	sc.Fleet.NumPoPs = 1
	sc.Parallelism = par
	sc.Live = live.Config{Channels: 8}
	return sc
}

// stormLiveScenario mirrors the channel-switch-storm preset at test
// scale across the full fleet: zipf-joined channels with heavy
// mid-stream switching.
func stormLiveScenario(seed uint64, par int) workload.Scenario {
	sc := smallScenario(seed)
	sc.Parallelism = par
	sc.Live = live.Config{
		Channels: 12, SwitchPerMin: 4,
		JoinDist: live.JoinZipf, JoinZipfS: 1.1,
	}
	return sc
}

// TestLiveByteIdenticalAcrossParallelism extends the determinism
// invariant to live mode: with every session gating on the shared
// publish clock (and, in the storm scenario, switching channels
// mid-stream), both the JSONL trace and the telemetry snapshot must
// still serialize to exactly the sequential run's bytes at any
// parallelism — including sub-PoP server-slot shards.
func TestLiveByteIdenticalAcrossParallelism(t *testing.T) {
	for name, mk := range map[string]func(uint64, int) workload.Scenario{
		"live-steady":          steadyLiveScenario,
		"channel-switch-storm": stormLiveScenario,
	} {
		trace := func(par int) []byte {
			ds := mustRun(t, mk(61, par))
			var buf bytes.Buffer
			if err := core.WriteJSONL(&buf, ds); err != nil {
				t.Fatalf("%s: WriteJSONL(par=%d): %v", name, par, err)
			}
			return buf.Bytes()
		}
		seqTrace := trace(1)
		for _, par := range []int{2, 8} {
			if got := trace(par); !bytes.Equal(seqTrace, got) {
				t.Fatalf("%s: Parallelism=%d trace differs from sequential (%d vs %d bytes)",
					name, par, len(got), len(seqTrace))
			}
		}

		snap := func(par int) []byte {
			res, err := Execute(mk(61, par), Options{Telemetry: true, SketchK: 64})
			if err != nil {
				t.Fatalf("%s: Execute(par=%d): %v", name, par, err)
			}
			var buf bytes.Buffer
			if err := telemetry.WriteSnapshot(&buf, res.Snapshot); err != nil {
				t.Fatalf("%s: WriteSnapshot(par=%d): %v", name, par, err)
			}
			return buf.Bytes()
		}
		seqSnap := snap(1)
		for _, par := range []int{2, 8} {
			if got := snap(par); !bytes.Equal(seqSnap, got) {
				t.Fatalf("%s: Parallelism=%d snapshot differs from sequential (%d vs %d bytes)",
					name, par, len(got), len(seqSnap))
			}
		}
	}
}

// TestLivePublishClockNeverViolated is the published-only invariant: no
// live chunk request is ever issued before the publish clock releases
// its target, across joins, buffer refills, and channel switches. The
// probe observes every live issue; the run uses Parallelism 1 because
// the hook is package-level state.
func TestLivePublishClockNeverViolated(t *testing.T) {
	var (
		mu     sync.Mutex
		issues int
		bad    int
	)
	liveProbe = func(sessionID uint64, absChunk int, issueMS, publishMS float64) {
		mu.Lock()
		issues++
		if issueMS < publishMS {
			bad++
			if bad == 1 {
				t.Errorf("session %d issued chunk %d at %g ms, published at %g ms",
					sessionID, absChunk, issueMS, publishMS)
			}
		}
		mu.Unlock()
	}
	defer func() { liveProbe = nil }()

	mustRun(t, stormLiveScenario(7, 1))
	if issues == 0 {
		t.Fatal("probe observed no live chunk issues")
	}
	if bad > 0 {
		t.Fatalf("%d of %d live chunk issues violated the publish clock", bad, issues)
	}
}

// TestLiveSessionRecordInvariants checks the per-session live fields: a
// live campaign marks every session live with a non-negative join chunk
// no further than the arrival-time edge, and the accrued live-edge lag
// is non-negative and bounded by the session's span on the publish clock
// (each fetched chunk can wait at most one publish period).
func TestLiveSessionRecordInvariants(t *testing.T) {
	sc := stormLiveScenario(19, 1)
	ds := mustRun(t, sc)
	lc := sc.Live.WithDefaults()
	spans := ds.SessionChunks()
	switches := 0
	for i := range ds.Sessions {
		rec := &ds.Sessions[i]
		if !rec.Live {
			t.Fatalf("session %d not marked live in a live campaign", rec.SessionID)
		}
		if rec.LiveJoinChunk < 0 || rec.LiveJoinChunk > lc.EdgeChunk(rec.ArrivalMS) {
			t.Errorf("session %d join chunk %d outside [0, edge=%d] at arrival %g",
				rec.SessionID, rec.LiveJoinChunk, lc.EdgeChunk(rec.ArrivalMS), rec.ArrivalMS)
		}
		if rec.LiveEdgeLagMS < 0 {
			t.Errorf("session %d negative live-edge lag %g", rec.SessionID, rec.LiveEdgeLagMS)
		}
		if bound := float64(len(spans[i])) * lc.ChunkDurMS(); rec.LiveEdgeLagMS > bound {
			t.Errorf("session %d live-edge lag %g ms exceeds %d chunks x %g ms",
				rec.SessionID, rec.LiveEdgeLagMS, len(spans[i]), lc.ChunkDurMS())
		}
		if rec.LiveSwitches < 0 {
			t.Errorf("session %d negative switch count", rec.SessionID)
		}
		switches += rec.LiveSwitches
	}
	if switches == 0 {
		t.Error("switch-storm campaign recorded zero channel switches")
	}

	// The steady campaign must never switch, and VoD sessions must not
	// carry live state at all.
	steady := mustRun(t, steadyLiveScenario(19, 1))
	for i := range steady.Sessions {
		if n := steady.Sessions[i].LiveSwitches; n != 0 {
			t.Fatalf("steady live session switched %d times with SwitchPerMin=0", n)
		}
	}
	vod := mustRun(t, smallScenario(19))
	for i := range vod.Sessions {
		rec := &vod.Sessions[i]
		if rec.Live || rec.LiveEdgeLagMS != 0 || rec.LiveSwitches != 0 {
			t.Fatalf("VoD session %d carries live state: %+v", rec.SessionID, rec)
		}
	}
}

// TestLiveDisabledByteIdenticalToVoD pins the "zero value changes
// nothing" invariant: a scenario with a disabled live block must
// produce byte-for-byte the trace of one that never mentions live.
func TestLiveDisabledByteIdenticalToVoD(t *testing.T) {
	plain := mustRun(t, smallScenario(23))
	withZero := smallScenario(23)
	withZero.Live = live.Config{}
	zero := mustRun(t, withZero)

	var a, b bytes.Buffer
	if err := core.WriteJSONL(&a, plain); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteJSONL(&b, zero); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("zero-valued live config changed the trace bytes")
	}
}
