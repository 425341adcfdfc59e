package telemetry

import (
	"bytes"
	"math"
	"testing"

	"vidperf/internal/core"
	"vidperf/internal/diagnose"
	"vidperf/internal/timeline"
)

func testWindows() []timeline.Window {
	return timeline.Timeline{Phases: []timeline.Phase{
		{Name: "outage", StartMS: 1000, EndMS: 2000},
	}}.Windows(3000) // w00-pre, w01-outage, w02-post
}

func windowSession(id uint64, arrival, startup float64) core.SessionRecord {
	return core.SessionRecord{
		SessionID: id, ArrivalMS: arrival, StartupMS: startup,
		RebufferRate: 0.01, AvgBitrateKbps: 1500, NumChunks: 1,
	}
}

// TestWindowAttribution: sessions land in the window containing their
// arrival; counters and sketches fill per window; NaN startups stay out
// of the startup sketch but the session still counts.
func TestWindowAttribution(t *testing.T) {
	a := NewAccumulatorWith(Config{SketchK: 32, Windows: testWindows()})
	a.ConsumeSession(windowSession(1, 500, 800), nil)
	a.ConsumeSession(windowSession(2, 1500, 2500), nil)
	a.ConsumeSession(windowSession(3, 1999.999, 2400), nil)
	never := windowSession(4, 2500, math.NaN())
	a.ConsumeSession(never, nil)

	sn := a.snapshot()
	if got := sn.Counter(WindowSessionsKey("w00-pre")); got != 1 {
		t.Fatalf("pre sessions = %d", got)
	}
	if got := sn.Counter(WindowSessionsKey("w01-outage")); got != 2 {
		t.Fatalf("outage sessions = %d", got)
	}
	if got := sn.Counter(WindowSessionsKey("w02-post")); got != 1 {
		t.Fatalf("post sessions = %d", got)
	}
	if got := sn.Counter(CounterSessionsUnwindowed); got != 0 {
		t.Fatalf("unwindowed = %d", got)
	}
	if got := sn.Sketch(WindowSketchKey(MetricStartupMS, "w01-outage")).N(); got != 2 {
		t.Fatalf("outage startup samples = %d", got)
	}
	// The never-started session is counted but not sketched.
	if got := sn.Sketch(WindowSketchKey(MetricStartupMS, "w02-post")).N(); got != 0 {
		t.Fatalf("post startup samples = %d, want 0 (NaN excluded)", got)
	}
	if got := sn.Sketch(WindowSketchKey(MetricRebufferRate, "w02-post")).N(); got != 1 {
		t.Fatalf("post rebuffer samples = %d", got)
	}
	if len(sn.Windows) != 3 {
		t.Fatalf("snapshot windows = %v", sn.Windows)
	}
}

// TestWindowOutOfRangeCounts: an arrival outside every window goes to
// the unwindowed counter so the coverage check can fail loudly.
func TestWindowOutOfRangeCounts(t *testing.T) {
	a := NewAccumulatorWith(Config{SketchK: 32, Windows: testWindows()})
	a.ConsumeSession(windowSession(1, 9999, 800), nil)
	if got := a.snapshot().Counter(CounterSessionsUnwindowed); got != 1 {
		t.Fatalf("unwindowed = %d", got)
	}
}

// TestWindowDiagCross: with diagnosis and windows both on, per-window
// per-label counters appear and sum to the window's session count.
func TestWindowDiagCross(t *testing.T) {
	a := NewAccumulatorWith(Config{
		SketchK: 32, Diagnose: &diagnose.Config{}, Windows: testWindows(),
	})
	a.ConsumeSession(windowSession(1, 1500, 800), nil)
	a.ConsumeSession(windowSession(2, 1600, 700), nil)
	sn := a.snapshot()
	var sum uint64
	for _, l := range diagnose.Labels() {
		sum += sn.Counter(WindowDiagSessionsKey("w01-outage", string(l)))
	}
	if sum != 2 {
		t.Fatalf("outage-window label counts sum to %d, want 2", sum)
	}
}

// TestWindowedMergeOrderIndependentBytes extends the shard-determinism
// contract to windowed state: with a fixed session-to-shard assignment,
// the wall-clock interleaving of the shards' consumption must not change
// the merged snapshot's bytes — each shard sees its own stream in
// session order, the merge walks shards in canonical order, and that is
// all the bytes may depend on.
func TestWindowedMergeOrderIndependentBytes(t *testing.T) {
	cfg := Config{SketchK: 32, Diagnose: &diagnose.Config{}, Windows: testWindows()}
	rec := func(id uint64) core.SessionRecord {
		return windowSession(id, float64(id*70), float64(500+id*10))
	}
	build := func(interleaved bool) []byte {
		s1 := NewAccumulatorWith(cfg)
		s2 := NewAccumulatorWith(cfg)
		if interleaved {
			for id := uint64(1); id <= 40; id++ {
				if id%2 == 0 {
					s2.ConsumeSession(rec(id), nil)
				} else {
					s1.ConsumeSession(rec(id), nil)
				}
			}
		} else {
			// Shard 1 drains fully before shard 2 starts — the sequential
			// schedule. Each shard still sees its sessions in id order.
			for id := uint64(1); id <= 40; id += 2 {
				s1.ConsumeSession(rec(id), nil)
			}
			for id := uint64(2); id <= 40; id += 2 {
				s2.ConsumeSession(rec(id), nil)
			}
		}
		merged := NewAccumulatorWith(cfg)
		merged.Merge(s1)
		merged.Merge(s2)
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, merged.snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(false), build(true)) {
		t.Fatal("windowed snapshot bytes depend on shard scheduling")
	}
}
