package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vidperf/internal/telemetry"
)

// TestDiagShareMetrics: dimensioned diagnosis counters become
// diag_share_<label> fractions of the session total.
func TestDiagShareMetrics(t *testing.T) {
	sn := snap(map[string]string{"cell": "c"}, map[string]uint64{
		telemetry.CounterSessions: 8,
		telemetry.CounterSessions + "_" + telemetry.DiagDim + "=healthy":        6,
		telemetry.CounterSessions + "_" + telemetry.DiagDim + "=server-latency": 2,
	}, nil)
	got := extract(sn)
	if got[DiagSharePrefix+"healthy"] != 0.75 {
		t.Fatalf("diag_share_healthy = %g, want 0.75", got[DiagSharePrefix+"healthy"])
	}
	if got[DiagSharePrefix+"server-latency"] != 0.25 {
		t.Fatalf("diag_share_server-latency = %g, want 0.25", got[DiagSharePrefix+"server-latency"])
	}
}

// TestSaveErrorPaths: Save into a nonexistent directory fails, and a
// save that fails part way leaves the previous store and no temporary
// file behind.
func TestSaveErrorPaths(t *testing.T) {
	s := New()
	if err := s.Save("/nonexistent-dir/sub/store.json"); err == nil {
		t.Fatal("Save into a missing directory succeeded")
	}
	path := filepath.Join(t.TempDir(), "store.json")
	if err := s.Add("sw", "c", snap(map[string]string{"cell": "c"}, map[string]uint64{"sessions": 9}, nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// JSON has no NaN, so this entry fails to encode after the sweeps
	// and the first entry were written.
	s.entries["sw/d"] = Entry{Sweep: "sw", Cell: "d", Metrics: map[string]float64{"x": math.NaN()}}
	if err := s.Save(path); err == nil {
		t.Fatal("Save encoded a NaN metric")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("after a failed save the store holds %.40q (%v), want the previous store", got, err)
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %v (%v), want only the store", entries, err)
	}
}
