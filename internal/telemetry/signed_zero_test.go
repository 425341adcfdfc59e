package telemetry_test

import (
	"encoding/json"
	"math"
	"testing"

	"vidperf/internal/experiment"
)

// TestSnapshotSketchesHoldNoNegativeZero runs paper-baseline and every
// timeline, live and proxy preset at small scale through telemetry and
// checks that no sketch level holds a −0. Sketch compaction orders −0
// before +0 while sort.Float64s leaves the pair unordered, so snapshot
// bytes are the same under either sort only while −0 stays out.
func TestSnapshotSketchesHoldNoNegativeZero(t *testing.T) {
	ran := 0
	for _, name := range experiment.Presets() {
		spec, err := experiment.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if name != "paper-baseline" && spec.Timeline == nil && spec.Live == nil && spec.Proxy == nil {
			continue
		}
		cells, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range cells {
			cell.Scenario.NumSessions = 500
			res, err := experiment.RunCell(spec, cell, "")
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cell.Name, err)
			}
			for key, sk := range res.Snapshot.Sketches {
				b, err := json.Marshal(sk)
				if err != nil {
					t.Fatal(err)
				}
				var w struct{ Levels [][]float64 }
				if err := json.Unmarshal(b, &w); err != nil {
					t.Fatal(err)
				}
				for h, lvl := range w.Levels {
					for _, v := range lvl {
						if v == 0 && math.Signbit(v) {
							t.Errorf("%s/%s: sketch %s level %d holds −0", name, cell.Name, key, h)
						}
					}
				}
			}
			ran++
		}
	}
	if ran < 4 {
		t.Fatalf("ran %d preset cells, want paper-baseline plus timeline, live and proxy presets", ran)
	}
}
