package main

import (
	"os"
	"path/filepath"
	"testing"

	"vidperf/internal/diagnose"
	"vidperf/internal/experiment"
	"vidperf/internal/telemetry"
)

// TestPaperBaselineWithDiagnosisSmoke runs the paper-baseline preset
// through the campaign runner with diagnosis enabled at laptop scale —
// the cmd/sweep path the CI gate also exercises — and checks the
// snapshot contract end to end: the cell file exists, carries the
// diagnosis label, and its per-label session counts cover the campaign.
func TestPaperBaselineWithDiagnosisSmoke(t *testing.T) {
	sp, err := experiment.Preset("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	sp.Diagnosis = true
	sp.Scenario.Sessions = 400
	sp.Scenario.Prefixes = 100
	sp.Scenario.Videos = 300
	sp.SketchK = 64

	dir := t.TempDir()
	res, err := experiment.RunCampaign(sp, experiment.RunOptions{OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("paper-baseline expanded to %d cells, want 1", len(res.Cells))
	}
	sn := res.Cells[0].Snapshot
	if sn.Label("diagnosis") != "on" {
		t.Errorf("snapshot labels = %v, want diagnosis=on", sn.Labels)
	}

	sessions := sn.Counter(telemetry.CounterSessions)
	if sessions != 400 {
		t.Fatalf("sessions = %d, want 400", sessions)
	}
	var labelled uint64
	for _, l := range diagnose.Labels() {
		labelled += sn.Counter(telemetry.DiagSessionsKey(l))
	}
	if labelled != sessions {
		t.Fatalf("label counts sum to %d, want %d", labelled, sessions)
	}

	// The written snapshot round-trips and matches the in-memory one.
	path := filepath.Join(dir, res.Cells[0].Cell.FileName())
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	onDisk, err := telemetry.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range diagnose.Labels() {
		key := telemetry.DiagSessionsKey(l)
		if onDisk.Counter(key) != sn.Counter(key) {
			t.Errorf("%s: on-disk %d != in-memory %d", key, onDisk.Counter(key), sn.Counter(key))
		}
	}
}
