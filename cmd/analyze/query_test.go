package main

import (
	"strings"
	"testing"

	"vidperf/internal/store"
	"vidperf/internal/telemetry"
)

// queryFixtureStore builds a deterministic three-cell store the league
// table goldens pin: one axis, fixed counters, one fixed sketch per
// cell, so render bytes depend on nothing but this function.
func queryFixtureStore(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	cells := []struct {
		name    string
		axisVal string
		hit     uint64
		startup []float64
	}{
		{"zipf_s=0.6", "0.6", 700, []float64{220, 340, 470, 910}},
		{"zipf_s=0.9", "0.9", 900, []float64{180, 230, 310, 620}},
		{"zipf_s=1.1", "1.1", 950, []float64{150, 200, 260, 480}},
	}
	for _, c := range cells {
		sn := &telemetry.Snapshot{
			Schema:  telemetry.SnapshotSchema,
			SketchK: 64,
			Labels: map[string]string{
				"spec": "zipf-sweep", "cell": c.name, "preset": "paper",
				"axis:zipf_s": c.axisVal,
			},
			Sketches: map[string]*telemetry.QuantileSketch{},
			Counters: map[string]uint64{
				"sessions": 100, "chunks": 1000, "chunks_hit": c.hit,
			},
		}
		sk := telemetry.NewSketch(64)
		for _, v := range c.startup {
			sk.Add(v)
		}
		sn.Sketches["startup_ms"] = sk
		if err := s.Add("zipf-sweep", c.name, sn); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestGoldenQueryTable pins the analyze query league table byte for
// byte, in both per-cell and grouped-by-axis forms.
func TestGoldenQueryTable(t *testing.T) {
	s := queryFixtureStore(t)

	q := store.Query{Sweep: "zipf-sweep", Rank: "startup_ms_p95", Desc: true}
	rows, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "query-cells.golden", renderQuery(q, rows))

	q = store.Query{
		Sweep:   "zipf-sweep",
		Where:   map[string]string{"preset": "paper"},
		GroupBy: "zipf_s",
		Rank:    "hit_ratio",
	}
	rows, err = s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "query-grouped.golden", renderQuery(q, rows))
}

// TestRenderQueryEmpty: an unmatched filter renders an explicit
// no-rows note, never an empty table that could pass unnoticed.
func TestRenderQueryEmpty(t *testing.T) {
	q := store.Query{Rank: "hit_ratio"}
	if got := renderQuery(q, nil); !strings.Contains(got, "no rows matched") {
		t.Errorf("empty result renders silently: %q", got)
	}
}

// TestRenderDiffSweepSelf: a sweep diffed against itself renders a
// zero-regression report.
func TestRenderDiffSweepSelf(t *testing.T) {
	s := queryFixtureStore(t)
	d, err := s.CompareSweeps("zipf-sweep", "zipf-sweep", nil)
	if err != nil {
		t.Fatal(err)
	}
	got := renderDiffSweep(d)
	if !strings.Contains(got, "== 0 regressions ==") {
		t.Errorf("self-diff report:\n%s", got)
	}
	if strings.Contains(got, "REGRESSION") || strings.Contains(got, "MISSING") {
		t.Errorf("self-diff flags spurious regressions:\n%s", got)
	}
}
