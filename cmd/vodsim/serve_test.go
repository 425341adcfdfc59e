package main

import (
	"context"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/serve"
	"vidperf/internal/workload"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// defaultServeFlags mirrors the flag defaults serveMain registers.
func defaultServeFlags() serveFlags {
	return serveFlags{
		seed: 1, abrName: "hybrid",
		sessionsPerWindow: 2000, prefixes: 2500, videos: 6000, sketchK: 256,
		windowMin: 30, ring: 12, listen: "127.0.0.1:9632",
	}
}

func TestValidateServeFlags(t *testing.T) {
	ok := func(name string, set map[string]bool, mut func(*serveFlags)) {
		t.Helper()
		f := defaultServeFlags()
		if mut != nil {
			mut(&f)
		}
		if err := validateServeFlags(set, f, nil); err != nil {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
	}
	bad := func(name string, set map[string]bool, mut func(*serveFlags), wantSub string) {
		t.Helper()
		f := defaultServeFlags()
		if mut != nil {
			mut(&f)
		}
		err := validateServeFlags(set, f, nil)
		if err == nil {
			t.Errorf("%s: expected an error", name)
			return
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}

	ok("defaults", nil, nil)
	ok("resume with runtime flags",
		map[string]bool{"resume": true, "pace": true, "max-windows": true, "out": true},
		func(f *serveFlags) { f.resume = "x.ckpt" })
	ok("spec with serve overrides",
		map[string]bool{"spec": true, "window-min": true, "sessions-per-window": true},
		func(f *serveFlags) { f.spec = "s.json" })
	ok("checkpoint-every with checkpoint",
		map[string]bool{"checkpoint": true, "checkpoint-every": true},
		func(f *serveFlags) { f.checkpoint = "x.ckpt"; f.checkpointEvery = 4 })

	bad("resume with scenario flag",
		map[string]bool{"resume": true, "seed": true},
		func(f *serveFlags) { f.resume = "x.ckpt" }, "-seed")
	bad("resume with spec",
		map[string]bool{"resume": true, "spec": true},
		func(f *serveFlags) { f.resume = "x.ckpt"; f.spec = "s.json" }, "-spec")
	bad("spec with abr",
		map[string]bool{"spec": true, "abr": true},
		func(f *serveFlags) { f.spec = "s.json" }, "-abr")
	bad("spec with seed",
		map[string]bool{"spec": true, "seed": true},
		func(f *serveFlags) { f.spec = "s.json" }, "-seed")
	bad("zero sessions per window", nil,
		func(f *serveFlags) { f.sessionsPerWindow = 0 }, "-sessions-per-window")
	bad("zero window", nil,
		func(f *serveFlags) { f.windowMin = 0 }, "-window-min")
	bad("negative pace", nil,
		func(f *serveFlags) { f.pace = -1 }, "-pace")
	bad("tiny sketch", nil,
		func(f *serveFlags) { f.sketchK = 4 }, "-sketch-k")
	bad("zero ring", nil,
		func(f *serveFlags) { f.ring = 0 }, "-ring")
	bad("checkpoint-every without checkpoint",
		map[string]bool{"checkpoint-every": true},
		func(f *serveFlags) { f.checkpointEvery = 4 }, "-checkpoint-every")

	if err := validateServeFlags(nil, defaultServeFlags(), []string{"stray"}); err == nil {
		t.Error("positional arguments were accepted")
	}
}

// TestBuildServeEngineFromFlags: flag-only construction carries every
// scenario and serve knob into the engine's effective config.
func TestBuildServeEngineFromFlags(t *testing.T) {
	f := defaultServeFlags()
	f.seed = 42
	f.sessionsPerWindow = 500
	f.windowMin = 5
	f.ring = 3
	f.diagnose = true
	eng, err := buildServeEngine(nil, f, testLogger())
	if err != nil {
		t.Fatalf("buildServeEngine: %v", err)
	}
	cfg := eng.Config()
	if cfg.Scenario.Seed != 42 || cfg.SessionsPerWindow != 500 ||
		cfg.WindowMS != 5*60*1000 || cfg.Ring != 3 || !cfg.Diagnose {
		t.Fatalf("effective config = %+v", cfg)
	}
}

// TestBuildServeEngineFromSpec: the spec's scenario and serve block fill
// the engine config; explicitly-set flags win over the block.
func TestBuildServeEngineFromSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "serve.json")
	spec := `{
		"name": "serve-test",
		"scenario": {"sessions": 900, "seed": 7},
		"sketch_k": 128,
		"serve": {"window_min": 10, "sessions_per_window": 250, "ring": 6, "pace": 60}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	f := defaultServeFlags()
	f.spec = path
	eng, err := buildServeEngine(map[string]bool{"spec": true}, f, testLogger())
	if err != nil {
		t.Fatalf("buildServeEngine(spec): %v", err)
	}
	cfg := eng.Config()
	if cfg.Scenario.Seed != 7 || cfg.SessionsPerWindow != 250 ||
		cfg.WindowMS != 10*60*1000 || cfg.Ring != 6 || cfg.Pace != 60 || cfg.SketchK != 128 {
		t.Fatalf("spec-driven config = %+v", cfg)
	}

	// An explicit flag beats the serve block.
	f.windowMin = 2
	f.pace = 0
	eng, err = buildServeEngine(map[string]bool{"spec": true, "window-min": true, "pace": true}, f, testLogger())
	if err != nil {
		t.Fatalf("buildServeEngine(spec+flags): %v", err)
	}
	cfg = eng.Config()
	if cfg.WindowMS != 2*60*1000 || cfg.Pace != 0 {
		t.Fatalf("flag overrides lost: %+v", cfg)
	}

	// With no window_min and no -window-min, the window is the
	// scenario's arrival window, not the flag's 30-minute default.
	spec = `{
		"name": "serve-window",
		"scenario": {"arrival_window_min": 5, "seed": 7},
		"serve": {"sessions_per_window": 100}
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	f = defaultServeFlags()
	f.spec = path
	eng, err = buildServeEngine(map[string]bool{"spec": true}, f, testLogger())
	if err != nil {
		t.Fatalf("buildServeEngine(spec without window_min): %v", err)
	}
	if cfg = eng.Config(); cfg.WindowMS != 5*60*1000 || cfg.SessionsPerWindow != 100 {
		t.Fatalf("window = %g ms, sessions/window = %d; want the scenario's 5 minutes and 100",
			cfg.WindowMS, cfg.SessionsPerWindow)
	}
}

// TestBuildServeEngineResume writes a real checkpoint by running a small
// engine, then rebuilds through the -resume flag path: determinism state
// comes from the checkpoint, runtime knobs from the flags, and an
// unset -checkpoint keeps writing to the resumed file.
func TestBuildServeEngineResume(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "svc.ckpt")
	src, err := serve.NewEngine(serve.Config{
		Scenario: workload.Scenario{
			Seed:        31,
			NumPrefixes: 100,
			Catalog:     catalog.Config{NumVideos: 500},
			Parallelism: 1,
		},
		SessionsPerWindow: 80,
		WindowMS:          60000,
		SketchK:           64,
		MaxWindows:        1,
		CheckpointPath:    ckptPath,
	}, testLogger())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := src.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}

	f := defaultServeFlags()
	f.resume = ckptPath
	f.maxWindows = 3
	f.parallel = 4
	f.pace = 12
	set := map[string]bool{"resume": true, "max-windows": true, "parallel": true, "pace": true}
	eng, err := buildServeEngine(set, f, testLogger())
	if err != nil {
		t.Fatalf("buildServeEngine: %v", err)
	}
	cfg := eng.Config()
	if cfg.Scenario.Seed != 31 || cfg.SessionsPerWindow != 80 || cfg.SketchK != 64 {
		t.Fatalf("resumed config lost checkpoint state: %+v", cfg)
	}
	if cfg.MaxWindows != 3 || cfg.Pace != 12 || cfg.Scenario.Parallelism != 4 {
		t.Fatalf("runtime flags did not apply: %+v", cfg)
	}
	if cfg.CheckpointPath != ckptPath {
		t.Fatalf("checkpoint path = %q, want the resumed file %q", cfg.CheckpointPath, ckptPath)
	}
	if eng.WindowsDone() != 1 {
		t.Fatalf("resumed engine reports %d windows done, want 1", eng.WindowsDone())
	}

	f.resume = filepath.Join(t.TempDir(), "missing.ckpt")
	if _, err := buildServeEngine(map[string]bool{"resume": true}, f, testLogger()); err == nil {
		t.Fatal("resume from a missing checkpoint did not error")
	}
}
