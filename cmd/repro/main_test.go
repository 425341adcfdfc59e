package main

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/experiment"
	"vidperf/internal/workload"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// configureArgs parses a repro command line and configures its run, as
// main does.
func configureArgs(args ...string) (*experiment.Spec, []experiment.Cell, error) {
	fs, specPath, _ := parseFlags(args)
	return configure(fs, *specPath)
}

// writeSpec writes a spec file into a temporary directory.
func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDefaultSpecIsThePaperScenario pins the default run, and so the
// default report's bytes, to the scenario the reproduction has always
// simulated, whether it comes from the embedded preset or the file.
func TestDefaultSpecIsThePaperScenario(t *testing.T) {
	want := workload.Scenario{
		Seed:              2016,
		NumSessions:       20000,
		NumPrefixes:       2500,
		MeanWatchedChunks: 12,
		Catalog:           catalog.Config{NumVideos: 6000},
	}
	for _, args := range [][]string{nil, {"-spec", "../../examples/specs/paper-repro.json"}} {
		_, cells, err := configureArgs(args...)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if len(cells) != 1 || !reflect.DeepEqual(cells[0].Scenario, want) {
			t.Fatalf("%q: cells %+v, want one with scenario %+v", args, cells, want)
		}
	}
	// The scenario flags the user sets override the spec's keys.
	_, cells, err := configureArgs("-seed", "7", "-sessions", "300", "-parallel", "2")
	if err != nil {
		t.Fatal(err)
	}
	if sc := cells[0].Scenario; sc.Seed != 7 || sc.NumSessions != 300 || sc.Parallelism != 2 || sc.NumPrefixes != 2500 {
		t.Fatalf("overridden scenario = %+v", sc)
	}
}

// TestSeedSetReport runs a two-seed spec through the report path: the
// baseline cell is rendered exactly as a single-cell run of it, then
// every cell's verdict and the per-figure tally follow, and the exit
// decision is the conjunction of the cells' verdicts.
func TestSeedSetReport(t *testing.T) {
	const scenario = `"preset": "paper-repro", "scenario": {"sessions": 1500, "parallel": 1}`
	single, _, err := runSpec(t, `{"name": "one-seed", `+scenario+`}`)
	if err != nil {
		t.Fatal(err)
	}
	report, ok, err := runSpec(t, `{"name": "two-seeds", `+scenario+`,
		"axes": [{"name": "seed", "values": [2016, 2017]}]}`)
	if err != nil {
		t.Fatal(err)
	}

	// The single-cell report ends in its wall-time line; the rest is the
	// baseline section of the seed-set report.
	baseline := single[:strings.LastIndex(strings.TrimSuffix(single, "\n"), "\n")+1]
	if !strings.HasPrefix(report, baseline) {
		t.Fatalf("seed-set report does not open with the baseline cell's full report:\n%s", report)
	}
	for _, section := range []string{"## Dataset (paper §3 calibration)", "## Figures and tables", "## Verdict", "## Cells"} {
		if !strings.Contains(report, section) {
			t.Errorf("report lacks %q", section)
		}
	}

	verdict := regexp.MustCompile(`(?m)^(seed=\d+) (\d+)/(\d+)`)
	lines := verdict.FindAllStringSubmatch(report, -1)
	if len(lines) != 2 || lines[0][1] != "seed=2016" || lines[1][1] != "seed=2017" {
		t.Fatalf("cell verdict lines = %q, want one per seed", lines)
	}
	clean := 0
	for _, l := range lines {
		if l[2] == l[3] {
			clean++
		}
	}
	if ok != (clean == len(lines)) {
		t.Errorf("exit decision ok=%v, but %d of %d cells reproduce every figure", ok, clean, len(lines))
	}

	// The tally has one row per figure, and its failures add up to the
	// verdict lines' shortfalls.
	tally := regexp.MustCompile(`(?m)^((?:FIG|TABLE)\d+) +(\d+)$`)
	rows := tally.FindAllStringSubmatch(report, -1)
	if n := len(rows); n == 0 || lines[0][3] != strconv.Itoa(n) {
		t.Fatalf("tally has %d rows, want one per figure (%s)", n, lines[0][3])
	}
	fails, shortfall := 0, 0
	for _, r := range rows {
		fails += atoi(t, r[2])
	}
	for _, l := range lines {
		shortfall += atoi(t, l[3]) - atoi(t, l[2])
	}
	if fails != shortfall {
		t.Errorf("tally counts %d failures, verdict lines %d", fails, shortfall)
	}
}

// runSpec configures repro on a spec file and produces its report.
func runSpec(t *testing.T, spec string) (string, bool, error) {
	t.Helper()
	sp, cells, err := configureArgs("-spec", writeSpec(t, spec))
	if err != nil {
		return "", false, err
	}
	return reproduce(discardLogger(), sp, cells)
}

// TestBadSpecFails: a malformed or out-of-range spec, or a bad flag
// value, is an error from configure, never a panic.
func TestBadSpecFails(t *testing.T) {
	for _, c := range []struct {
		want string
		args []string
	}{
		{"parse spec", []string{"-spec", writeSpec(t, `{"name": "x", "scenario": {`)}},
		{"unknown field", []string{"-spec", writeSpec(t, `{"name": "x", "scenario": {"session": 5}}`)}},
		{"prefixes", []string{"-spec", writeSpec(t, `{"name": "x", "scenario": {"prefixes": -3}}`)}},
		{"no such file", []string{"-spec", filepath.Join(t.TempDir(), "missing.json")}},
		{"scenario.sessions", []string{"-sessions", "0"}},
		{"unexpected arguments", []string{"stray"}},
	} {
		if _, _, err := configureArgs(c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want one mentioning %q", c.args, err, c.want)
		}
	}
}

// atoi parses a count the report printed.
func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
