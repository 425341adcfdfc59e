package analysis

import (
	"math"
	"testing"

	"vidperf/internal/diagnose"
	"vidperf/internal/live"
	"vidperf/internal/session"
	"vidperf/internal/telemetry"
	"vidperf/internal/workload"
)

// liveSnapshot simulates a small switch-heavy live campaign with
// diagnosis on and returns its telemetry snapshot.
func liveSnapshot(t *testing.T) *telemetry.Snapshot {
	t.Helper()
	res, err := session.Execute(workload.Scenario{
		Seed:        99,
		NumSessions: 800,
		NumPrefixes: 200,
		Live:        live.Config{Channels: 6, SwitchPerMin: 2},
	}, session.Options{Telemetry: true, SketchK: 64, Diagnose: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Snapshot
}

// TestStreamLiveView checks the sketch-backed live report: the view is
// recognized as live, the join/lag sketches carry every session, the
// per-channel counts partition the population, and switches registered.
func TestStreamLiveView(t *testing.T) {
	sn := liveSnapshot(t)
	lv := StreamLive(sn)
	if !lv.Enabled() {
		t.Fatal("live snapshot not recognized as live")
	}
	if lv.Sessions != 800 {
		t.Fatalf("sessions = %d", lv.Sessions)
	}
	if n := lv.JoinTime.N(); n != 800 {
		t.Errorf("join-time sketch holds %d sessions", n)
	}
	if n := lv.EdgeLag.N(); n != 800 {
		t.Errorf("edge-lag sketch holds %d sessions", n)
	}
	if p50 := lv.JoinTime.Quantile(0.5); p50 <= 0 || math.IsNaN(p50) {
		t.Errorf("join-time p50 = %v", p50)
	}
	if lag := lv.EdgeLag.Quantile(0.9); lag < 0 || math.IsNaN(lag) {
		t.Errorf("edge-lag p90 = %v", lag)
	}
	if lv.Switches == 0 {
		t.Error("switch-heavy campaign recorded zero switches")
	}
	if len(lv.Channels) != 6 {
		t.Fatalf("channel rows = %d, want 6", len(lv.Channels))
	}
	var total uint64
	for i, c := range lv.Channels {
		if i > 0 && lv.Channels[i-1].Value >= c.Value {
			t.Errorf("channel rows out of order at %d: %q >= %q",
				i, lv.Channels[i-1].Value, c.Value)
		}
		total += c.N
	}
	if total != lv.Sessions {
		t.Errorf("channel counts sum to %d, want %d", total, lv.Sessions)
	}

	// A VoD snapshot must not be mistaken for a live one.
	res, err := session.Execute(workload.Scenario{
		Seed: 99, NumSessions: 50, NumPrefixes: 20,
	}, session.Options{Telemetry: true, SketchK: 64})
	if err != nil {
		t.Fatal(err)
	}
	if StreamLive(res.Snapshot).Enabled() {
		t.Fatal("VoD snapshot recognized as live")
	}
}

// TestDegradedShareExcludesLiveEdge pins the degraded-share accounting:
// healthy, abr-limited, and live-edge-limited sessions do not count
// against the delivery path, and the rows cover every session.
func TestDegradedShareExcludesLiveEdge(t *testing.T) {
	dg := StreamDiagnosis(liveSnapshot(t))
	if !dg.Enabled() {
		t.Fatal("diagnosis state missing from diagnosed campaign")
	}
	if dg.Labelled != dg.Sessions {
		t.Fatalf("labelled %d of %d sessions", dg.Labelled, dg.Sessions)
	}
	var ok uint64
	for _, r := range dg.Rows {
		switch r.Label {
		case diagnose.Healthy, diagnose.ABRLimited, diagnose.LiveEdgeLimited:
			ok += r.Sessions
		}
	}
	want := float64(dg.Labelled-ok) / float64(dg.Labelled)
	if got := dg.DegradedShare(); got != want {
		t.Errorf("DegradedShare = %v, want %v", got, want)
	}
	if got := dg.DegradedShare(); got < 0 || got > 1 {
		t.Errorf("DegradedShare = %v outside [0, 1]", got)
	}
	if (StreamingDiagnosis{}).DegradedShare() != 0 {
		t.Error("empty diagnosis has nonzero degraded share")
	}
}
