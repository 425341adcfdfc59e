package main

import (
	"context"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/serve"
	"vidperf/internal/workload"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// serveEngine parses a serve command line and builds its engine, as
// serveMain does.
func serveEngine(args ...string) (*serve.Engine, error) {
	fs, f := parseServeFlags(args)
	if err := validateServeFlags(fs, f); err != nil {
		return nil, err
	}
	return buildServeEngine(fs, f, testLogger())
}

func TestValidateServeFlags(t *testing.T) {
	check := func(wantSub string, args ...string) {
		t.Helper()
		err := validateServeFlags(parseServeFlags(args))
		switch {
		case wantSub == "" && err != nil:
			t.Errorf("%q: unexpected error: %v", args, err)
		case wantSub != "" && err == nil:
			t.Errorf("%q: expected an error", args)
		case wantSub != "" && !strings.Contains(err.Error(), wantSub):
			t.Errorf("%q: error %q does not mention %q", args, err, wantSub)
		}
	}
	check("")
	check("", "-resume", "x.ckpt", "-pace", "2", "-max-windows", "3", "-out", "o.json", "-parallel", "4")
	check("", "-spec", "s.json", "-window-min", "5", "-sessions-per-window", "9")
	check("", "-checkpoint", "x.ckpt", "-checkpoint-every", "4")

	check("-seed", "-resume", "x.ckpt", "-seed", "3")
	check("-spec", "-resume", "x.ckpt", "-spec", "s.json")
	check("-parallel", "-resume", "x.ckpt", "-parallel", "-1")
	check("-sketch-k", "-resume", "x.ckpt", "-sketch-k", "64")
	check("unexpected", "stray")

	// The scenario flags and serve knobs are checked where the spec is
	// built. Each set one overrides its spec key (-videos is left to the
	// spec here); a bad value fails like a bad key, and a serve knob out
	// of range fails in serve.Config.Validate, with -resume too.
	spec := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(spec, []byte(`{"name": "s", "scenario": {"prefixes": 100, "videos": 300}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := serveEngine("-spec", spec, "-seed", "8", "-abr", "buffer-based", "-cold",
		"-prefixes", "120", "-parallel", "2", "-listen", "")
	if err != nil {
		t.Fatalf("-spec with -seed/-abr/-cold: %v", err)
	}
	if sc := eng.Config().Scenario; sc.Seed != 8 || sc.ABRName != "buffer-based" || !sc.ColdStart ||
		sc.NumPrefixes != 120 || sc.Catalog.NumVideos != 300 || sc.Parallelism != 2 {
		t.Fatalf("overrides did not reach the scenario: %+v", sc)
	}
	ckpt := writeCheckpoint(t)
	for _, bad := range []struct {
		want string
		args []string
	}{
		{"sketch_k", []string{"-sketch-k", "9"}},
		{"sketch_k", []string{"-sketch-k", "4"}},
		{"sketch_k", []string{"-spec", spec, "-sketch-k", "9"}},
		{"prefixes", []string{"-prefixes", "0"}},
		{"videos", []string{"-videos", "-1"}},
		{"parallel", []string{"-parallel", "-1"}},
		{"ABR", []string{"-abr", "nope"}},
		{"serve.sessions_per_window", []string{"-sessions-per-window", "0"}},
		{"serve.window_min", []string{"-window-min", "0"}},
		{"Pace", []string{"-pace", "-1"}},
		{"serve.ring", []string{"-ring", "0"}},
		{"Ring", []string{"-ring", "-1"}},
		{"serve.window_min", []string{"-window-min", "NaN"}},
		{"serve.window_min", []string{"-window-min", "+Inf"}},
		{"serve.pace", []string{"-pace", "NaN"}},
		{"Pace", []string{"-resume", ckpt, "-pace", "NaN"}},
		{"MaxWindows", []string{"-max-windows", "-1"}},
		// Periodic checkpoints need a path, whether the interval comes
		// from the flag or from the spec's serve block.
		{"no CheckpointPath", []string{"-checkpoint-every", "4"}},
		{"no CheckpointPath", []string{"-spec", "../../examples/specs/serve-steady.json"}},
	} {
		if _, err := serveEngine(append(bad.args, "-listen", "")...); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%q: error %v, want one naming %s", bad.args, err, bad.want)
		}
	}
}

// TestServeKnobsCheckedOnce: a serve knob out of range fails with
// serve.Config.Validate's error whether it comes from a flag or from the
// spec's serve block.
func TestServeKnobsCheckedOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	for _, c := range []struct{ flag, key, value, want string }{
		{"-sessions-per-window", "sessions_per_window", "-5", "serve: SessionsPerWindow -5, want a finite value >= 0"},
		{"-window-min", "window_min", "-1", "serve: WindowMS -60000, want a finite value >= 0"},
		{"-ring", "ring", "-1", "serve: Ring -1, want a finite value >= 0"},
		{"-pace", "pace", "-2", "serve: Pace -2, want a finite value >= 0"},
		{"-checkpoint-every", "checkpoint_every_windows", "-1", "serve: CheckpointEveryWindows -1, want a finite value >= 0"},
	} {
		spec := `{"name": "s", "serve": {"` + c.key + `": ` + c.value + `}}`
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{c.flag, c.value}, {"-spec", path}} {
			if _, err := serveEngine(append(args, "-listen", "")...); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%q (spec %s): error %v, want one containing %q", args, spec, err, c.want)
			}
		}
	}
}

// TestBuildServeEngineFromFlags: flag-only construction carries every
// scenario and serve knob into the engine's effective config, and the
// scenario is the literal the flags always built.
func TestBuildServeEngineFromFlags(t *testing.T) {
	eng, err := serveEngine("-seed", "42", "-sessions-per-window", "500", "-window-min", "5",
		"-ring", "3", "-diagnose")
	if err != nil {
		t.Fatalf("buildServeEngine: %v", err)
	}
	cfg := eng.Config()
	if cfg.SessionsPerWindow != 500 || cfg.WindowMS != 5*60*1000 || cfg.Ring != 3 || !cfg.Diagnose || cfg.SketchK != 256 {
		t.Fatalf("effective config = %+v", cfg)
	}
	want := workload.Scenario{Seed: 42, NumPrefixes: 2500, Catalog: catalog.Config{NumVideos: 6000}, ABRName: "hybrid"}
	if !reflect.DeepEqual(cfg.Scenario, want) {
		t.Fatalf("scenario = %+v, want %+v", cfg.Scenario, want)
	}
	// Unset, -sessions-per-window takes its flag default, not the
	// scenario's session count.
	if eng, err = serveEngine(); err != nil || eng.Config().SessionsPerWindow != 2000 || eng.Config().WindowMS != 30*60*1000 {
		t.Fatalf("defaults: %v, %+v", err, eng.Config())
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

	eng, err := serveEngine("-spec", path)
	if err != nil {
		t.Fatalf("buildServeEngine(spec): %v", err)
	}
	cfg := eng.Config()
	if cfg.Scenario.Seed != 7 || cfg.SessionsPerWindow != 250 ||
		cfg.WindowMS != 10*60*1000 || cfg.Ring != 6 || cfg.Pace != 60 || cfg.SketchK != 128 {
		t.Fatalf("spec-driven config = %+v", cfg)
	}

	// An explicit flag beats the serve block.
	eng, err = serveEngine("-spec", path, "-window-min", "2", "-pace", "0", "-sessions-per-window", "40")
	if err != nil {
		t.Fatalf("buildServeEngine(spec+flags): %v", err)
	}
	cfg = eng.Config()
	if cfg.WindowMS != 2*60*1000 || cfg.Pace != 0 || cfg.SessionsPerWindow != 40 || cfg.Ring != 6 {
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
	eng, err = serveEngine("-spec", path)
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
	ckptPath := writeCheckpoint(t)
	eng, err := serveEngine("-resume", ckptPath, "-max-windows", "3", "-parallel", "4", "-pace", "12")
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

	if _, err := serveEngine("-resume", filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("resume from a missing checkpoint did not error")
	}
}

// writeCheckpoint runs a small one-window engine and returns the
// checkpoint file it wrote.
func writeCheckpoint(t *testing.T) string {
	t.Helper()
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
	return ckptPath
}
