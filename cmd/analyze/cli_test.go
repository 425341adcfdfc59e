package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vidperf/internal/experiment"
	"vidperf/internal/telemetry"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed, so the subcommand entry points can be exercised end to end
// (their error paths exit through logging.Fatal and are covered by the
// CI smoke jobs instead).
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// cliSweepDir runs a tiny campaign into a temp dir for the CLI tests.
func cliSweepDir(t *testing.T) string {
	t.Helper()
	sp, err := experiment.Load(strings.NewReader(`{
		"name": "cli-test",
		"scenario": {"seed": 7, "sessions": 60, "prefixes": 40, "videos": 200},
		"axes": [{"name": "cold", "values": [false, true]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := experiment.RunCampaign(sp, experiment.RunOptions{OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCLIIngestQueryDiffSweep drives the store subcommands through
// their real entry points: ingest a sweep directory, query it, and
// self-diff it (which must report zero regressions and not exit).
func TestCLIIngestQueryDiffSweep(t *testing.T) {
	dir := cliSweepDir(t)
	storePath := filepath.Join(t.TempDir(), "campaigns.json")

	cmdIngest([]string{"-store", storePath, dir})
	if _, err := os.Stat(storePath); err != nil {
		t.Fatalf("ingest left no store behind: %v", err)
	}

	out := captureStdout(t, func() {
		cmdQuery([]string{"-store", storePath, "-sweep", "cli-test",
			"-group-by", "cold", "-rank", "hit_ratio", "-desc", "-limit", "2"})
	})
	if !strings.Contains(out, "rank by hit_ratio (descending)") || !strings.Contains(out, "cold") {
		t.Errorf("query table missing expected header:\n%s", out)
	}

	jsonOut := captureStdout(t, func() {
		cmdQuery([]string{"-store", storePath, "-json", "-rank", "sessions"})
	})
	if !strings.Contains(jsonOut, `"key"`) {
		t.Errorf("query -json emitted no rows:\n%s", jsonOut)
	}

	diff := captureStdout(t, func() {
		cmdDiffSweep([]string{"-store", storePath, "cli-test", "cli-test"})
	})
	if !strings.Contains(diff, "== 0 regressions ==") {
		t.Errorf("self diff-sweep reported regressions:\n%s", diff)
	}
	diffJSON := captureStdout(t, func() {
		cmdDiffSweep([]string{"-store", storePath, "-json", "cli-test", "cli-test"})
	})
	if !strings.Contains(diffJSON, `"regressions": 0`) {
		t.Errorf("self diff-sweep -json reported regressions:\n%s", diffJSON)
	}
}

// TestCLIIngestLooseSnapshot: a bare snapshot file ingests under an
// explicit sweep name.
func TestCLIIngestLooseSnapshot(t *testing.T) {
	dir := cliSweepDir(t)
	m, err := experiment.ReadManifestFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(t.TempDir(), "s.json")
	cmdIngest([]string{"-store", storePath, "-sweep", "ops", filepath.Join(dir, m.Cells[0].File)})
	out := captureStdout(t, func() {
		cmdQuery([]string{"-store", storePath, "-sweep", "ops", "-rank", "sessions"})
	})
	if !strings.Contains(out, "ops/"+m.Cells[0].Name) {
		t.Errorf("loose ingest did not surface in query:\n%s", out)
	}
}

// TestCLISnapshotReports drives compare, diagnose, and windows through
// their entry points on passing fixtures (coverage invariants hold, so
// none of them exit).
func TestCLISnapshotReports(t *testing.T) {
	warm, cold := goldenSnapshots(t)
	dir := t.TempDir()
	write := func(name string, sn *telemetry.Snapshot) string {
		path := filepath.Join(dir, name)
		f := mustCreateFile(t, path)
		if err := telemetry.WriteSnapshot(f, sn); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	warmPath := write("warm.json", warm)
	coldPath := write("cold.json", cold)
	tlPath := write("timeline.json", goldenTimelineSnapshot(t))

	out := captureStdout(t, func() { cmdCompare([]string{warmPath, coldPath}) })
	if !strings.Contains(out, "diag_share") {
		t.Errorf("compare output missing cause-share deltas:\n%s", out)
	}
	out = captureStdout(t, func() { cmdDiagnose([]string{warmPath}) })
	if !strings.Contains(out, "healthy") {
		t.Errorf("diagnose output missing label rows:\n%s", out)
	}
	out = captureStdout(t, func() { cmdWindows([]string{tlPath}) })
	if !strings.Contains(out, "degrade") {
		t.Errorf("windows output missing the phase window:\n%s", out)
	}
}

// TestParseWhere covers the label-filter grammar.
func TestParseWhere(t *testing.T) {
	got, err := parseWhere("preset=paper, diagnosis=on,")
	if err != nil {
		t.Fatal(err)
	}
	if got["preset"] != "paper" || got["diagnosis"] != "on" || len(got) != 2 {
		t.Fatalf("parseWhere = %v", got)
	}
	if _, err := parseWhere("orphan"); err == nil {
		t.Fatal("parseWhere accepted a pair without =")
	}
	if _, err := parseWhere("=value"); err == nil {
		t.Fatal("parseWhere accepted an empty label name")
	}
}

func mustCreateFile(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
