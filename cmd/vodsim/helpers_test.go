package main

import (
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/core"
	"vidperf/internal/experiment"
	"vidperf/internal/logging"
	"vidperf/internal/session"
	"vidperf/internal/telemetry"
	"vidperf/internal/workload"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestNewLogger checks the -log-format values vodsim and vodsim serve
// accept, and that an unknown one is refused before any work starts.
func TestNewLogger(t *testing.T) {
	for _, format := range []string{"", "text", "json"} {
		if _, err := logging.New(format); err != nil {
			t.Errorf("logging.New(%q): %v", format, err)
		}
	}
	if _, err := logging.New("yaml"); err == nil {
		t.Error("logging.New accepted an unknown format")
	}
}

func testScenarioSmall(seed uint64) workload.Scenario {
	return workload.Scenario{
		Seed:        seed,
		NumSessions: 120,
		NumPrefixes: 80,
		Catalog:     catalog.Config{NumVideos: 400},
	}
}

func TestWriteTrace(t *testing.T) {
	res, err := session.Execute(testScenarioSmall(4), session.Options{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	ds := res.Dataset
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeTrace(path, ds); err != nil {
		t.Fatalf("writeTrace: %v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat trace: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("trace file is empty")
	}

	// A trace whose chunk cannot be encoded, found only after the
	// sessions were written, leaves the previous trace as it was.
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := &core.Dataset{
		Sessions: make([]core.SessionRecord, 200),
		Chunks:   []core.ChunkRecord{{DFBms: math.NaN()}},
	}
	if err := writeTrace(path, bad); err == nil {
		t.Fatal("writeTrace wrote a NaN chunk field")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(prev) {
		t.Fatalf("after a failed trace write the file holds %.40q (%v), want the previous trace", got, err)
	}
}

// readSnapshot loads the snapshot a run wrote to path.
func readSnapshot(t *testing.T, path string) *telemetry.Snapshot {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open snapshot: %v", err)
	}
	defer f.Close()
	sn, err := telemetry.ReadSnapshot(f)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	return sn
}

// configureArgs parses and configures a vodsim command line.
func configureArgs(args ...string) (*batchFlags, *experiment.Spec, experiment.Cell, error) {
	fs, f := parseFlags(args)
	sp, cell, err := configure(fs, f)
	return f, sp, cell, err
}

// TestRunStreamingWritesSnapshot drives a flag-only -stream run end to
// end: the flags build the scenario literal they always built, and the
// out file is a loadable snapshot with the scenario's session count and
// no spec labels.
func TestRunStreamingWritesSnapshot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "snapshot.json")
	f, sp, cell, err := configureArgs("-stream", "-diagnose", "-sketch-k", "64",
		"-seed", "4", "-sessions", "120", "-prefixes", "80", "-videos", "400", "-out", out)
	if err != nil {
		t.Fatalf("configure: %v", err)
	}
	want := testScenarioSmall(4)
	want.ABRName = "hybrid"
	if !reflect.DeepEqual(cell.Scenario, want) {
		t.Fatalf("flag-only scenario = %+v, want %+v", cell.Scenario, want)
	}
	if err := run(discardLogger(), f, sp, cell); err != nil {
		t.Fatalf("run: %v", err)
	}
	sn := readSnapshot(t, out)
	if got := sn.Counter(telemetry.CounterSessions); got != 120 {
		t.Fatalf("snapshot has %d sessions, want 120", got)
	}
	if sn.SketchK != 64 || len(sn.Labels) != 0 {
		t.Fatalf("snapshot sketch k %d, labels %v; want 64 and none", sn.SketchK, sn.Labels)
	}
}

// TestRunSpecAppliesOverrides runs a shipped spec with every override
// flag set and checks each override reached the cell scenario and the
// written snapshot.
func TestRunSpecAppliesOverrides(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cell.json")
	f, sp, cell, err := configureArgs("-spec", "../../examples/specs/paper-baseline.json",
		"-sessions", "150", "-prefixes", "100", "-videos", "500", "-seed", "9",
		"-parallel", "2", "-abr", "buffer-based", "-cold", "-stream",
		"-sketch-k", "64", "-diagnose", "-out", out)
	if err != nil {
		t.Fatalf("configure: %v", err)
	}
	sc := cell.Scenario
	if sc.NumSessions != 150 || sc.NumPrefixes != 100 || sc.Catalog.NumVideos != 500 ||
		sc.Seed != 9 || sc.Parallelism != 2 || sc.ABRName != "buffer-based" || !sc.ColdStart {
		t.Fatalf("overrides missing from the cell scenario: %+v", sc)
	}
	if sp.SketchK != 64 || !sp.Diagnosis {
		t.Fatalf("sketch_k %d, diagnosis %v; want the -sketch-k and -diagnose overrides", sp.SketchK, sp.Diagnosis)
	}
	if err := run(discardLogger(), f, sp, cell); err != nil {
		t.Fatalf("run: %v", err)
	}
	sn := readSnapshot(t, out)
	if got := sn.Counter(telemetry.CounterSessions); got != 150 {
		t.Fatalf("snapshot has %d sessions, want the -sessions override 150", got)
	}
	if sn.SketchK != 64 {
		t.Fatalf("snapshot sketch k = %d, want the -sketch-k override 64", sn.SketchK)
	}
	if sn.Label("spec") != "paper-baseline" || sn.Label("diagnosis") != "on" {
		t.Fatalf("snapshot labels = %v", sn.Labels)
	}

	// -diagnose=false turns a spec's diagnosis off, and -trace with a CSV
	// export writes the cell's trace and tables.
	dir := t.TempDir()
	spec := filepath.Join(dir, "diag.json")
	if err := os.WriteFile(spec, []byte(`{"name": "d", "diagnosis": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, sp, cell, err = configureArgs("-spec", spec, "-diagnose=false", "-trace",
		"-sessions", "60", "-prefixes", "40", "-videos", "200",
		"-out", filepath.Join(dir, "t.jsonl"), "-chunks-csv", filepath.Join(dir, "c.csv"))
	if err != nil {
		t.Fatalf("configure -trace: %v", err)
	}
	if sp.Diagnosis {
		t.Fatal("-diagnose=false left the spec's diagnosis on")
	}
	if err := run(discardLogger(), f, sp, cell); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	for _, name := range []string{"t.jsonl", "c.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Fatalf("%s missing or empty (%v)", name, err)
		}
	}
}

func TestStartProfiles(t *testing.T) {
	// No profile paths: setup and stop are both no-ops that must not fail.
	stop := startProfiles(discardLogger(), "", "")
	stop()

	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop = startProfiles(discardLogger(), cpu, mem)
	stop()
	for _, p := range []string{cpu, mem} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if info.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
