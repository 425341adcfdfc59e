package experiment

import (
	"strings"
	"testing"
)

// TestTimelineSpecDecodes: a spec with a timeline block loads, builds a
// validated timeline into every cell's scenario, and the run labels the
// snapshot.
func TestTimelineSpecDecodes(t *testing.T) {
	sp, err := Load(strings.NewReader(`{
		"name": "tl",
		"scenario": {"seed": 3, "sessions": 100},
		"timeline": {"phases": [
			{"name": "brownout", "start_min": 5, "duration_min": 5, "backend_latency_factor": 4},
			{"name": "crowd", "start_min": 15, "duration_min": 5, "arrival_rate_factor": 3}
		]}
	}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	cells, err := sp.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	tl := cells[0].Scenario.Timeline
	if len(tl.Phases) != 2 {
		t.Fatalf("cell timeline has %d phases", len(tl.Phases))
	}
	if p := tl.Phases[0]; p.Name != "brownout" || p.StartMS != 5*60e3 || p.EndMS != 10*60e3 ||
		p.Effects.BackendLatencyFactor != 4 {
		t.Fatalf("phase 0 = %+v", p)
	}
	if p := tl.Phases[1]; p.Effects.ArrivalRateFactor != 3 {
		t.Fatalf("phase 1 = %+v", p)
	}
}

// TestTimelineSpecStrict: unknown fields inside the timeline block are
// rejected like every other spec typo.
func TestTimelineSpecStrict(t *testing.T) {
	_, err := Load(strings.NewReader(`{
		"name": "tl",
		"timeline": {"phases": [
			{"name": "a", "start_min": 0, "duration_min": 5, "backend_factor": 4}
		]}
	}`))
	if err == nil || !strings.Contains(err.Error(), "backend_factor") {
		t.Fatalf("Load accepted unknown phase field: %v", err)
	}
}

// TestTimelineSpecRejectsOverlap: phase overlap fails at load time, with
// both phases named.
func TestTimelineSpecRejectsOverlap(t *testing.T) {
	_, err := Load(strings.NewReader(`{
		"name": "tl",
		"timeline": {"phases": [
			{"name": "a", "start_min": 0, "duration_min": 10},
			{"name": "b", "start_min": 5, "duration_min": 10}
		]}
	}`))
	if err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("Load accepted overlapping phases: %v", err)
	}
}

// TestTimelineSpecRejectsBadPoPs: PoP references outside the cell's
// fleet fail validation — including when the cell's fleet is smaller
// than the default six PoPs.
func TestTimelineSpecRejectsBadPoPs(t *testing.T) {
	_, err := Load(strings.NewReader(`{
		"name": "tl",
		"timeline": {"phases": [
			{"name": "outage", "start_min": 0, "duration_min": 5, "pop_down": [9]}
		]}
	}`))
	if err == nil || !strings.Contains(err.Error(), "PoP 9") {
		t.Fatalf("Load accepted PoP 9 outage in the default 6-PoP fleet: %v", err)
	}
	sp, err := Load(strings.NewReader(`{
		"name": "tl",
		"timeline": {"phases": [
			{"name": "outage", "start_min": 0, "duration_min": 5, "pop_down": [4]}
		]}
	}`))
	if err != nil {
		t.Fatalf("Load rejected a PoP 4 outage in the default 6-PoP fleet: %v", err)
	}
	cells, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sc := cells[0].Scenario
	sc.Fleet.NumPoPs = 3
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "PoP 4") {
		t.Fatalf("Validate accepted an outage a 3-PoP fleet cannot host: %v", err)
	}
}

// TestTimelinePresetOverlay: a spec file's timeline phases replace its
// preset's.
func TestTimelinePresetOverlay(t *testing.T) {
	sp, err := Load(strings.NewReader(`{
		"name": "my-outage",
		"preset": "pop-outage",
		"timeline": {"phases": [
			{"name": "later", "start_min": 25, "duration_min": 5, "pop_down": [1]}
		]}
	}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(sp.Timeline.Phases) != 1 || sp.Timeline.Phases[0].Name != "later" {
		t.Fatalf("preset timeline not overridden: %+v", sp.Timeline)
	}
	if !sp.Diagnosis {
		t.Fatal("preset diagnosis flag lost in overlay")
	}
	// And without a file timeline the preset's survives.
	sp, err = Load(strings.NewReader(`{"preset": "pop-outage"}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(sp.Timeline.Phases) != 1 || sp.Timeline.Phases[0].Name != "outage" {
		t.Fatalf("preset timeline = %+v", sp.Timeline)
	}
}

// TestNilTimelineBuildsEmpty: specs without the block build the zero
// timeline.
func TestNilTimelineBuildsEmpty(t *testing.T) {
	var ts *TimelineSpec
	tl, err := ts.Build()
	if err != nil {
		t.Fatalf("Build(nil): %v", err)
	}
	if !tl.Empty() {
		t.Fatalf("Build(nil) = %+v, want empty", tl)
	}
}
