package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// expectError checks that configuring args fails with an error naming
// want.
func expectError(t *testing.T, want string, args ...string) {
	t.Helper()
	_, _, _, err := configureArgs(args...)
	if err == nil {
		t.Errorf("%q: accepted", args)
		return
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("%q: error %q does not mention %q", args, err, want)
	}
}

// TestValidateFlags checks the flag-only runs: valid flags configure,
// and bad values or output combinations fail before any simulation.
func TestValidateFlags(t *testing.T) {
	small := []string{"-sessions", "100", "-prefixes", "50", "-videos", "50"}
	for _, extra := range [][]string{
		nil,
		{"-stream", "-diagnose"},
		{"-stream", "-parallel", "4"},
		{"-parallel", "0"}, // the flag's default: GOMAXPROCS
		{"-trace"},         // plain runs write a trace anyway
		{"-seed", "0"},
		{"-chunks-csv", "c.csv", "-sessions-csv", "s.csv"},
	} {
		if _, _, _, err := configureArgs(append(extra, small...)...); err != nil {
			t.Errorf("%q rejected: %v", extra, err)
		}
	}
	// -diagnose rides the snapshot; a trace run has none.
	expectError(t, "-diagnose", "-diagnose")
	expectError(t, "parallel", "-parallel", "-1")
	expectError(t, "sessions", "-sessions", "0")
	expectError(t, "sessions", "-sessions", "-5")
	expectError(t, "prefixes", "-prefixes", "-3")
	expectError(t, "videos", "-videos", "0")
	expectError(t, "abr", "-abr", "")
	// -sketch-k sets sketch_k in every mode, so Spec.Validate checks it
	// even where a trace run would not use it.
	expectError(t, "sketch_k", "-sketch-k", "2")
	expectError(t, "sketch_k", "-stream", "-sketch-k", "2")
	expectError(t, "sketch_k", "-stream", "-sketch-k", "9")
	expectError(t, "sketch_k", "-stream", "-sketch-k", "100000000")
	expectError(t, "-chunks-csv", "-stream", "-chunks-csv", "c.csv")
	expectError(t, "-stream", "-stream", "-sessions-csv", "s.csv")
	expectError(t, "pick one", "-stream", "-trace")
	expectError(t, "unexpected", "trace.jsonl")
}

// TestValidateSpecFlags checks -spec runs: every scenario flag is an
// override of the spec key of the same name, and the overridden spec is
// validated like a spec file.
func TestValidateSpecFlags(t *testing.T) {
	spec := "../../examples/specs/paper-baseline.json"
	for _, extra := range [][]string{
		nil,
		{"-out", "x.json", "-parallel", "3", "-seed", "2", "-sessions", "100",
			"-prefixes", "50", "-videos", "60", "-sketch-k", "64", "-diagnose"},
		{"-abr", "rate-smoothed", "-cold"},
		{"-stream"}, // a -spec run writes a snapshot anyway
		{"-trace", "-chunks-csv", "c.csv", "-sessions-csv", "s.csv"},
	} {
		if _, _, _, err := configureArgs(append([]string{"-spec", spec}, extra...)...); err != nil {
			t.Errorf("-spec with %q rejected: %v", extra, err)
		}
	}
	_, _, cell, err := configureArgs("-spec", spec, "-abr", "rate-smoothed", "-cold=true")
	if err != nil {
		t.Fatal(err)
	}
	if cell.Scenario.ABRName != "rate-smoothed" || !cell.Scenario.ColdStart {
		t.Errorf("-abr/-cold overrides did not reach the cell: %+v", cell.Scenario)
	}
	// The snapshot output keeps no tables, and the spec's own -diagnose
	// needs the snapshot.
	for _, bad := range []string{"-chunks-csv", "-sessions-csv"} {
		expectError(t, bad, "-spec", spec, bad, "x.csv")
	}
	expectError(t, "-diagnose", "-spec", spec, "-trace", "-diagnose")
	expectError(t, "unexpected", "-spec", spec, "extra.json")
	expectError(t, "sketch_k", "-spec", spec, "-sketch-k", "2")
	expectError(t, "sketch_k", "-spec", spec, "-sketch-k", "9")
	expectError(t, "sessions", "-spec", spec, "-sessions", "0")
	expectError(t, "prefixes", "-spec", spec, "-prefixes", "-3")

	// A multi-cell spec belongs to cmd/sweep.
	expectError(t, "cells", "-spec", "../../examples/specs/cold-start.json")
	// A bad scenario key fails at load time, not in the simulation.
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"name": "bad", "scenario": {"prefixes": -3}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	expectError(t, "prefixes", "-spec", path)
}

// TestABRHelpListsAccepted: every name -abr's help lists configures a
// run, and the list holds all nine names session.NewABR accepts.
func TestABRHelpListsAccepted(t *testing.T) {
	fs, _ := parseFlags(nil)
	usage := fs.Lookup("abr").Usage
	open, end := strings.Index(usage, "("), strings.LastIndex(usage, ")")
	if open < 0 || end < open {
		t.Fatalf("-abr help lists no names: %q", usage)
	}
	names := strings.Split(usage[open+1:end], ", ")
	if len(names) != 9 {
		t.Errorf("-abr help lists %d names, want 9: %q", len(names), names)
	}
	for _, name := range names {
		if _, _, _, err := configureArgs("-sessions", "10", "-prefixes", "5", "-videos", "5", "-abr", name); err != nil {
			t.Errorf("-abr %s: %v", name, err)
		}
	}
}
