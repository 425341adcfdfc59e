package experiment

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/session"
	"vidperf/internal/workload"
)

// oldZipfScenario replicates, verbatim, the scenario the pre-spec
// cmd/sweep hardcoded for its zipf factor (baseScenario(11) at the
// default -sessions 2000 plus the per-point ZipfExponent). The parity
// tests below pin examples/specs/zipf-sweep.json to this construction,
// so the spec port cannot silently drift from the sweep it replaced.
func oldZipfScenario(alpha float64) workload.Scenario {
	sc := workload.Scenario{
		Seed:        11,
		NumSessions: 2000,
		NumPrefixes: 400,
		Catalog:     catalog.Config{NumVideos: 1500},
		Parallelism: 0,
	}
	sc.Catalog.ZipfExponent = alpha
	return sc
}

var oldZipfAlphas = []float64{0.6, 0.8, 0.9, 1.0, 1.1}

func loadZipfSpec(t *testing.T) *Spec {
	t.Helper()
	sp, err := LoadFile(filepath.Join("..", "..", "examples", "specs", "zipf-sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestZipfSpecMatchesOldSweep asserts the shipped spec expands to
// exactly the scenarios the hardcoded sweep built — every cell, every
// field.
func TestZipfSpecMatchesOldSweep(t *testing.T) {
	cells, err := loadZipfSpec(t).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(oldZipfAlphas) {
		t.Fatalf("zipf-sweep expands to %d cells, old sweep had %d points", len(cells), len(oldZipfAlphas))
	}
	for i, alpha := range oldZipfAlphas {
		want := oldZipfScenario(alpha)
		if !reflect.DeepEqual(cells[i].Scenario, want) {
			t.Errorf("cell %q scenario = %+v, want old hardcoded %+v", cells[i].Name, cells[i].Scenario, want)
		}
	}
}

// TestZipfSpecRunParity runs one zipf cell through the campaign runner
// (at reduced scale) and byte-compares its snapshot against a direct
// telemetry-mode session.Execute of the old hardcoded scenario — the spec-driven
// pipeline must add labels and nothing else.
func TestZipfSpecRunParity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation parity in -short mode")
	}
	sp := loadZipfSpec(t)
	// Same reduction on both sides: parity is about the plumbing, not
	// the campaign scale.
	sp.Scenario.Sessions = 400
	sp.Scenario.Prefixes = 120
	sp.Scenario.Videos = 500
	res, err := RunCampaign(sp, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	for i, alpha := range oldZipfAlphas {
		old := oldZipfScenario(alpha)
		old.NumSessions, old.NumPrefixes, old.Catalog.NumVideos = 400, 120, 500
		wantRes, err := session.Execute(old, session.Options{Telemetry: true, SketchK: sp.EffectiveSketchK()})
		if err != nil {
			t.Fatal(err)
		}
		want := wantRes.Snapshot
		got := res.Cells[i].Snapshot
		if got.Label("cell") != res.Cells[i].Cell.Name || got.Label("spec") != "zipf-sweep" {
			t.Errorf("cell %d labels = %v", i, got.Labels)
		}
		got.Labels = nil
		a, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("cell %q snapshot differs from old hardcoded run (alpha=%g)", res.Cells[i].Cell.Name, alpha)
		}
	}
}

// TestCampaignWorkerCountInvariant runs the same two-cell campaign
// sequentially and with concurrent workers: every cell's snapshot must
// be byte-identical, the campaign-level counterpart of the per-run
// -parallel guarantee the CI determinism gate checks.
func TestCampaignWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation determinism in -short mode")
	}
	src := `{"name":"det","scenario":{"seed":5,"sessions":300,"prefixes":100,"videos":400},
		"axes":[{"name":"abr","values":["hybrid","buffer-based"]}]}`
	run := func(workers int) []string {
		sp := load(t, src)
		res, err := RunCampaign(sp, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res.Cells))
		for i, c := range res.Cells {
			b, err := json.Marshal(c.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(b)
		}
		return out
	}
	seq, par := run(1), run(2)
	if !reflect.DeepEqual(seq, par) {
		t.Error("campaign snapshots differ between Workers=1 and Workers=2")
	}
}

// TestCampaignCellErrorNamesCell verifies a bad cell (unknown ABR) fails
// the campaign with the offending cell in the error. Load refuses such a
// spec, so the bad value is added to a loaded one, as a spec built in Go
// could carry it.
func TestCampaignCellErrorNamesCell(t *testing.T) {
	sp := load(t, `{"name":"bad","scenario":{"sessions":10,"prefixes":10,"videos":10},
		"axes":[{"name":"abr","values":["hybrid"]}]}`)
	sp.Axes[0].Values = append(sp.Axes[0].Values, json.RawMessage(`"warp-drive"`))
	_, err := RunCampaign(sp, RunOptions{Workers: 2})
	if err == nil {
		t.Fatal("campaign with unknown ABR succeeded")
	}
	if want := "abr=warp-drive"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name cell %q", err, want)
	}
}
