package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	ok := func(sessions, prefixes, videos, parallel, sketchK int,
		stream bool, chunksCSV, sessCSV string, extra []string) error {
		return validateFlags(sessions, prefixes, videos, parallel, sketchK,
			stream, false, chunksCSV, sessCSV, extra)
	}
	// -diagnose rides the streaming aggregator: fine with -stream, an
	// error in batch mode.
	if err := validateFlags(100, 50, 50, 0, 256, true, true, "", "", nil); err != nil {
		t.Fatalf("-stream -diagnose rejected: %v", err)
	}
	if err := validateFlags(100, 50, 50, 0, 256, false, true, "", "", nil); err == nil ||
		!strings.Contains(err.Error(), "-diagnose") {
		t.Fatalf("batch -diagnose: want -diagnose error, got %v", err)
	}
	if err := ok(100, 50, 50, 0, 256, false, "", "", nil); err != nil {
		t.Fatalf("valid batch flags rejected: %v", err)
	}
	if err := ok(100, 50, 50, 4, 256, true, "", "", nil); err != nil {
		t.Fatalf("valid stream flags rejected: %v", err)
	}
	// -sketch-k only matters in stream mode; batch runs ignore it.
	if err := ok(100, 50, 50, 0, 2, false, "", "", nil); err != nil {
		t.Fatalf("batch run rejected over unused -sketch-k: %v", err)
	}
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"negative parallel", ok(100, 50, 50, -1, 256, false, "", "", nil), "-parallel"},
		{"zero sessions", ok(0, 50, 50, 0, 256, false, "", "", nil), "-sessions"},
		{"negative prefixes", ok(100, -3, 50, 0, 256, false, "", "", nil), "-prefixes"},
		{"zero videos", ok(100, 50, 0, 0, 256, false, "", "", nil), "-videos"},
		{"tiny sketch-k", ok(100, 50, 50, 0, 2, true, "", "", nil), "-sketch-k"},
		{"stream+chunks-csv", ok(100, 50, 50, 0, 256, true, "c.csv", "", nil), "-chunks-csv"},
		{"stream+sessions-csv", ok(100, 50, 50, 0, 256, true, "", "s.csv", nil), "-stream"},
		{"positional args", ok(100, 50, 50, 0, 256, false, "", "", []string{"trace.jsonl"}), "unexpected"},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, c.err, c.want)
		}
	}
}

func TestValidateSpecFlags(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{"spec": true}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	// The override allowlist is fine, alone or together.
	if err := validateSpecFlags(set(), 256, nil); err != nil {
		t.Errorf("bare -spec rejected: %v", err)
	}
	if err := validateSpecFlags(set("out", "parallel", "seed", "sessions", "prefixes", "videos", "sketch-k", "diagnose"), 256, nil); err != nil {
		t.Errorf("override flags rejected: %v", err)
	}
	// Scenario-defining flags must not fight the spec.
	for _, bad := range []string{"abr", "cold", "stream", "chunks-csv", "sessions-csv"} {
		err := validateSpecFlags(set(bad), 256, nil)
		if err == nil {
			t.Errorf("-%s combined with -spec accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), bad) {
			t.Errorf("-%s: error %q does not name the flag", bad, err)
		}
	}
	if err := validateSpecFlags(set(), 256, []string{"extra.json"}); err == nil {
		t.Error("positional args with -spec accepted")
	}
	// The -stream bound on -sketch-k applies in spec mode too: an
	// out-of-range override must error, not silently clamp.
	if err := validateSpecFlags(set("sketch-k"), 2, nil); err == nil ||
		!strings.Contains(err.Error(), "sketch-k") {
		t.Errorf("tiny -sketch-k with -spec: %v", err)
	}
	// An unset -sketch-k carries the flag default; no bound check applies.
	if err := validateSpecFlags(set(), 2, nil); err != nil {
		t.Errorf("unset sketch-k value checked anyway: %v", err)
	}
}
