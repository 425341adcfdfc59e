package figures

import (
	"strings"
	"sync"
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/core"
	"vidperf/internal/proxydetect"
	"vidperf/internal/session"
	"vidperf/internal/telemetry"
	"vidperf/internal/workload"
)

var (
	figOnce sync.Once
	figDS   *core.Dataset
)

const figMaxRank = 3000

func figDataset() *core.Dataset {
	figOnce.Do(func() {
		res, err := session.Execute(workload.Scenario{
			Seed:              2016,
			NumSessions:       6000,
			NumPrefixes:       900,
			MeanWatchedChunks: 12,
			Catalog:           catalog.Config{NumVideos: figMaxRank},
		}, session.Options{})
		if err != nil {
			panic(err)
		}
		raw := res.Dataset
		figDS = proxydetect.Keep(raw, proxydetect.Detect(raw.Sessions, proxydetect.Config{}))
	})
	return figDS
}

func TestAllFiguresPass(t *testing.T) {
	results := All(figDataset(), figMaxRank)
	if len(results) != 23 {
		t.Fatalf("got %d results, want 23 (every table and figure)", len(results))
	}
	seen := map[string]bool{}
	for _, res := range results {
		if seen[res.ID] {
			t.Errorf("duplicate figure id %s", res.ID)
		}
		seen[res.ID] = true
		if res.Title == "" || res.Paper == "" || res.Measured == "" {
			t.Errorf("%s: incomplete metadata: %+v", res.ID, res)
		}
		if len(res.Lines) == 0 {
			t.Errorf("%s: no rendered series", res.ID)
		}
		if !res.Pass {
			t.Errorf("%s: shape check failed — measured %q", res.ID, res.Measured)
		}
	}
	for _, want := range []string{"fig03", "fig04", "fig05", "fig06", "fig07",
		"fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"table1", "table4", "table5"} {
		if !seen[want] {
			t.Errorf("missing figure %s", want)
		}
	}
}

// TestTitlesArePlainText: Title and Paper are printed as they are, not
// through a format string, so a "%%" in them reaches the report as is.
func TestTitlesArePlainText(t *testing.T) {
	for _, res := range All(figDataset(), figMaxRank) {
		if strings.Contains(res.Title, "%%") || strings.Contains(res.Paper, "%%") {
			t.Errorf("%s: title %q / paper %q hold a format escape", res.ID, res.Title, res.Paper)
		}
	}
}

func TestRenderFormat(t *testing.T) {
	res := Fig13() // self-contained, fast
	out := res.Render()
	for _, want := range []string{"FIG13", "paper:", "measured:", "```"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
	bad := Result{ID: "x", Title: "t", Paper: "p", Measured: "m", Pass: false}
	if !strings.Contains(bad.Render(), "SHAPE MISMATCH") {
		t.Error("failing result should render SHAPE MISMATCH")
	}
}

func TestScriptedFiguresDeterministic(t *testing.T) {
	a, b := Fig13(), Fig13()
	if a.Measured != b.Measured {
		t.Error("Fig13 not deterministic")
	}
	c, d := Fig17(), Fig17()
	if c.Measured != d.Measured {
		t.Error("Fig17 not deterministic")
	}
	e, f := Fig20(), Fig20()
	if e.Measured != f.Measured {
		t.Error("Fig20 not deterministic")
	}
}

// figSnapshot replays the shared dataset through a telemetry Campaign so
// the streaming figures render from the same records the exact ones use.
func figSnapshot() *telemetry.Snapshot {
	ds := figDataset()
	camp := telemetry.NewCampaignWith(telemetry.Config{})
	for i, chunks := range ds.SessionChunks() {
		s := ds.Sessions[i]
		camp.Sink(s.PoP).ConsumeSession(s, chunks)
	}
	return camp.Snapshot()
}

// TestStreamingFiguresPass checks the sketch-backed figures the same way
// TestAllFiguresPass checks the exact ones.
func TestStreamingFiguresPass(t *testing.T) {
	results := AllStreaming(figSnapshot())
	if len(results) != 3 {
		t.Fatalf("got %d streaming results, want 3", len(results))
	}
	seen := map[string]bool{}
	for _, res := range results {
		if seen[res.ID] {
			t.Errorf("duplicate figure id %s", res.ID)
		}
		seen[res.ID] = true
		if res.Title == "" || res.Paper == "" || res.Measured == "" {
			t.Errorf("%s: incomplete metadata: %+v", res.ID, res)
		}
		if len(res.Lines) == 0 {
			t.Errorf("%s: no rendered series", res.ID)
		}
		if !res.Pass {
			t.Errorf("%s: shape check failed — measured %q", res.ID, res.Measured)
		}
	}
	for _, want := range []string{"stream-cdn", "stream-mix", "stream-qoe"} {
		if !seen[want] {
			t.Errorf("missing streaming figure %s", want)
		}
	}
}
