package figures

import (
	"strings"
	"testing"

	"vidperf/internal/diagnose"
	"vidperf/internal/live"
	"vidperf/internal/session"
	"vidperf/internal/workload"
)

// TestStreamLiveFigure checks the live report the way
// TestStreamingFiguresPass checks the VoD set: a live campaign's
// snapshot adds the stream-live (and, with diagnosis on, the
// stream-diagnosis) figure, its coverage invariant holds, and a channel
// row renders per channel.
func TestStreamLiveFigure(t *testing.T) {
	res, err := session.Execute(workload.Scenario{
		Seed:        41,
		NumSessions: 600,
		NumPrefixes: 150,
		Live:        live.Config{Channels: 5, SwitchPerMin: 1},
	}, session.Options{Telemetry: true, SketchK: 64, Diagnose: true})
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]Result{}
	for _, r := range AllStreaming(res.Snapshot) {
		seen[r.ID] = r
	}
	lv, ok := seen["stream-live"]
	if !ok {
		t.Fatal("live snapshot rendered no stream-live figure")
	}
	if !lv.Pass {
		t.Fatalf("stream-live shape check failed — measured %q", lv.Measured)
	}
	if lv.Title == "" || lv.Paper == "" || lv.Measured == "" {
		t.Fatalf("stream-live incomplete metadata: %+v", lv)
	}
	channels := 0
	for _, line := range lv.Lines {
		if strings.HasPrefix(line, "channel=") {
			channels++
		}
	}
	if channels != 5 {
		t.Errorf("stream-live rendered %d channel rows, want 5", channels)
	}
	dg, ok := seen["stream-diagnosis"]
	if !ok {
		t.Fatal("diagnosed snapshot rendered no stream-diagnosis figure")
	}
	if !dg.Pass {
		t.Fatalf("stream-diagnosis shape check failed — measured %q", dg.Measured)
	}
	if !strings.Contains(dg.Render(), string(diagnose.LiveEdgeLimited)) {
		t.Errorf("stream-diagnosis omits the %s row", diagnose.LiveEdgeLimited)
	}
}
