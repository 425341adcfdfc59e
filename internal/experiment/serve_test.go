package experiment

import (
	"flag"
	"strings"
	"testing"
)

// TestServeBlockLoads: a spec with a serve block decodes strictly, the
// block survives preset merging, and its units convert as documented.
func TestServeBlockLoads(t *testing.T) {
	sp, err := Load(strings.NewReader(`{
		"name": "svc",
		"scenario": {"sessions": 500},
		"serve": {"window_min": 5, "sessions_per_window": 250, "ring": 6,
		          "pace": 60, "checkpoint_every_windows": 4}
	}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sv := sp.Serve
	if sv == nil {
		t.Fatal("serve block dropped")
	}
	if sv.WindowMS() != 5*60*1000 {
		t.Fatalf("WindowMS = %g", sv.WindowMS())
	}
	if sv.SessionsPerWindow != 250 || sv.Ring != 6 || sv.Pace != 60 || sv.CheckpointEveryWindows != 4 {
		t.Fatalf("serve block = %+v", sv)
	}
	// The block does not disturb batch expansion.
	cells, err := sp.Expand()
	if err != nil || len(cells) != 1 {
		t.Fatalf("Expand: %d cells, err %v", len(cells), err)
	}
}

// TestServeBlockPresetOverride: a file's serve block refines the
// preset's key by key.
func TestServeBlockPresetOverride(t *testing.T) {
	sp, err := Load(strings.NewReader(`{
		"preset": "paper-baseline",
		"name": "svc-from-preset",
		"serve": {"window_min": 2}
	}`))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if sp.Serve == nil || sp.Serve.WindowMin != 2 {
		t.Fatalf("serve block after preset merge = %+v", sp.Serve)
	}
}

// TestServeBlockValidation: impossible serve blocks and the
// serve/timeline and serve/live conflicts are load-time errors.
func TestServeBlockValidation(t *testing.T) {
	for name, doc := range map[string]string{
		"negative window":   `{"name": "x", "serve": {"window_min": -1}}`,
		"negative ring":     `{"name": "x", "serve": {"ring": -2}}`,
		"negative pace":     `{"name": "x", "serve": {"pace": -0.5}}`,
		"negative every":    `{"name": "x", "serve": {"checkpoint_every_windows": -1}}`,
		"negative sessions": `{"name": "x", "serve": {"sessions_per_window": -1}}`,
		"with live":         `{"name": "x", "serve": {"window_min": 5}, "live": {"channels": 4}}`,
		"with timeline": `{"name": "x",
			"serve": {"window_min": 5},
			"timeline": {"phases": [{"name": "p", "start_min": 1, "duration_min": 1}]}}`,
		"unknown field": `{"name": "x", "serve": {"window_minutes": 5}}`,
	} {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: spec loaded without error", name)
		}
	}
}

// TestServeFlagsOverrideServeBlock: a serve flag reaches the engine
// configuration through the flag table, replacing its serve block key
// and leaving the others as the spec has them.
func TestServeFlagsOverrideServeBlock(t *testing.T) {
	sp := load(t, `{"name": "svc", "serve": {"window_min": 5, "sessions_per_window": 250, "ring": 6}}`)
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.Int("sessions-per-window", 2000, "")
	fs.Int("ring", 12, "")
	if err := fs.Parse([]string{"-sessions-per-window", "77"}); err != nil {
		t.Fatal(err)
	}
	if err := sp.OverrideFlags(fs.Visit); err != nil {
		t.Fatal(err)
	}
	cells, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sp.ServeConfig(cells[0])
	if cfg.SessionsPerWindow != 77 || cfg.WindowMS != 5*60*1000 || cfg.Ring != 6 {
		t.Fatalf("serve config = %+v, want 77 sessions per window over the block's 5 minutes and ring 6", cfg)
	}
}
