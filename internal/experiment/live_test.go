package experiment

import (
	"strings"
	"testing"

	"vidperf/internal/live"
)

// TestLiveBlockLoads: a spec with a live block decodes strictly, builds
// into a validated live.Config with defaults filled, and flows into the
// expanded cells' scenarios.
func TestLiveBlockLoads(t *testing.T) {
	sp, err := Load(strings.NewReader(`{
		"name": "ln",
		"scenario": {"sessions": 500},
		"live": {"channels": 12, "chunk_sec": 4, "switch_per_min": 2,
		         "join": "zipf", "join_zipf_s": 0.9, "join_behind_chunks": 3}
	}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if sp.Live == nil {
		t.Fatal("live block dropped")
	}
	cells, err := sp.Expand()
	if err != nil || len(cells) != 1 {
		t.Fatalf("Expand: %d cells, err %v", len(cells), err)
	}
	lc := cells[0].Scenario.Live
	want := live.Config{
		Channels: 12, ChunkDurationSec: 4, SwitchPerMin: 2,
		JoinDist: live.JoinZipf, JoinZipfS: 0.9, JoinBehindChunks: 3,
	}
	if lc != want {
		t.Fatalf("cell live config = %+v, want %+v", lc, want)
	}
	if !lc.Enabled() {
		t.Fatal("cell live config not enabled")
	}
}

// TestLiveBlockDefaults: an all-defaults live block inherits the
// internal/live calibrated defaults through Build.
func TestLiveBlockDefaults(t *testing.T) {
	sp, err := Load(strings.NewReader(`{"name": "ln", "live": {"channels": 4}}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	cells, err := sp.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	lc := cells[0].Scenario.Live
	if lc.ChunkDurationSec != live.DefaultChunkDurationSec ||
		lc.JoinDist != live.JoinUniform ||
		lc.JoinBehindChunks != live.DefaultJoinBehindChunks {
		t.Fatalf("defaults not applied: %+v", lc)
	}
}

// TestLiveBlockPresetOverride: a file's live block refines the preset's
// key by key, like the serve and proxy blocks, and the shipped live
// presets carry their blocks through Load.
func TestLiveBlockPresetOverride(t *testing.T) {
	sp, err := Load(strings.NewReader(`{
		"preset": "live-steady",
		"name": "ln-from-preset",
		"live": {"channels": 3}
	}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if sp.Live == nil || sp.Live.Channels != 3 {
		t.Fatalf("live block after preset merge = %+v", sp.Live)
	}
	// A key the file leaves out keeps the preset's value.
	sp, err = Load(strings.NewReader(`{"preset": "live-steady", "live": {"switch_per_min": 2}}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if want := (live.Config{Channels: 8, SwitchPerMin: 2}); sp.Live == nil || *sp.Live != want {
		t.Fatalf("live block after preset merge = %+v, want %+v", sp.Live, want)
	}

	for _, preset := range []string{"live-steady", "channel-switch-storm"} {
		sp, err := Load(strings.NewReader(`{"preset": "` + preset + `"}`))
		if err != nil {
			t.Fatalf("Load(%s): %v", preset, err)
		}
		if sp.Live == nil || sp.Live.Channels == 0 {
			t.Fatalf("%s: live block = %+v", preset, sp.Live)
		}
		if !sp.Diagnosis {
			t.Errorf("%s: diagnosis off; the live presets must carry the live-edge-limited cause share", preset)
		}
	}
}

// TestLiveBlockValidation: impossible live blocks and the live/serve
// conflict are load-time errors.
func TestLiveBlockValidation(t *testing.T) {
	for name, doc := range map[string]string{
		"zero channels":     `{"name": "x", "live": {"channels": 0}}`,
		"negative channels": `{"name": "x", "live": {"channels": -3}}`,
		"too many channels": `{"name": "x", "live": {"channels": 5000}}`,
		"chunk too short":   `{"name": "x", "live": {"channels": 4, "chunk_sec": 0.2}}`,
		"chunk too long":    `{"name": "x", "live": {"channels": 4, "chunk_sec": 300}}`,
		"switch rate":       `{"name": "x", "live": {"channels": 4, "switch_per_min": 100}}`,
		"bad join dist":     `{"name": "x", "live": {"channels": 4, "join": "lognormal"}}`,
		"negative zipf s":   `{"name": "x", "live": {"channels": 4, "join_zipf_s": -1}}`,
		"negative behind":   `{"name": "x", "live": {"channels": 4, "join_behind_chunks": -1}}`,
		"unknown field":     `{"name": "x", "live": {"channels": 4, "chunk_seconds": 6}}`,
		"with serve": `{"name": "x",
			"serve": {"window_min": 5},
			"live": {"channels": 4}}`,
	} {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: spec loaded without error", name)
		}
	}
}
