package main

import (
	"flag"
	"io"
	"log/slog"
	"strings"
	"testing"

	"vidperf/internal/experiment"
	"vidperf/internal/logging"
	"vidperf/internal/telemetry"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestNewLogger checks that sweep's -log-format default builds a logger
// and that an unknown format is refused before any work starts.
func TestNewLogger(t *testing.T) {
	for _, format := range []string{*logFormat, "", "text", "json"} {
		if _, err := logging.New(format); err != nil {
			t.Errorf("logging.New(%q): %v", format, err)
		}
	}
	if _, err := logging.New("yaml"); err == nil {
		t.Error("logging.New accepted an unknown format")
	}
}

func TestQuantileList(t *testing.T) {
	qs := quantileList()
	if !strings.Contains(qs, "p50") || !strings.Contains(qs, "/") {
		t.Fatalf("quantileList = %q, want a /-separated list including p50", qs)
	}
}

// TestLoadSpec exercises both happy paths of the flag-driven loader; the
// error paths exit the process and are covered by the validation logic
// they delegate to.
func TestLoadSpec(t *testing.T) {
	restoreSpec, restorePreset := *specPath, *preset
	defer func() { *specPath, *preset = restoreSpec, restorePreset }()

	*specPath, *preset = "../../examples/specs/paper-baseline.json", ""
	if sp := loadSpec(discardLogger()); sp.Name == "" {
		t.Fatal("spec file loaded with no name")
	}

	names := experiment.Presets()
	if len(names) == 0 {
		t.Fatal("no built-in presets")
	}
	*specPath, *preset = "", names[0]
	if sp := loadSpec(discardLogger()); sp.Name == "" {
		t.Fatalf("preset %q loaded with no name", names[0])
	}

	// -sessions and -parallel, once set, override the spec keys of the
	// same name; 0, their default, leaves the spec's values.
	*specPath, *preset = "", "serve-steady"
	for _, set := range [][2]string{{"sessions", "123"}, {"parallel", "3"}} {
		if err := flag.Set(set[0], set[1]); err != nil {
			t.Fatal(err)
		}
	}
	if sc := loadSpec(discardLogger()).Scenario; sc.Sessions != 123 || sc.Parallel != 3 {
		t.Fatalf("overridden scenario = %+v, want sessions 123 and parallel 3", sc)
	}
	flag.Set("sessions", "0")
	flag.Set("parallel", "0")
	if sc := loadSpec(discardLogger()).Scenario; sc.Sessions != 500 || sc.Parallel != 0 {
		t.Fatalf("scenario after -sessions 0 = %+v, want the spec's 500 sessions", sc)
	}
}

// TestPrintSummary runs a small two-cell campaign and renders its table:
// both the baseline row and a delta row must appear.
func TestPrintSummary(t *testing.T) {
	sp, err := experiment.LoadFile("../../examples/specs/diagnosed-cold-start.json")
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	sp.Scenario.Sessions = 150
	res, err := experiment.RunCampaign(sp, experiment.RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	printSummary(res) // must not panic; rows go to stdout

	base := res.Baseline()
	if base == nil {
		t.Fatal("campaign has no baseline cell")
	}
	if len(res.Cells) < 2 {
		t.Fatalf("campaign ran %d cells, want >= 2 so the delta column renders", len(res.Cells))
	}
	if base.Snapshot.ChunkShare(telemetry.CounterChunksHit) <= 0 {
		t.Fatal("baseline cell has a zero hit ratio")
	}
}
