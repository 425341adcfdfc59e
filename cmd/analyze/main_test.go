package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vidperf/internal/core"
	"vidperf/internal/diagnose"
	"vidperf/internal/figures"
	"vidperf/internal/live"
	"vidperf/internal/proxydetect"
	"vidperf/internal/proxypop"
	"vidperf/internal/session"
	"vidperf/internal/telemetry"
	"vidperf/internal/timeline"
	"vidperf/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenSnapshots builds the two fixture snapshots the golden tests
// render: a warm and a cold diagnosed campaign at laptop scale. The
// whole pipeline is deterministic (same seed ⇒ same snapshot ⇒ same
// table bytes), which is what lets CLI output be golden-tested at all.
func goldenSnapshots(t *testing.T) (warm, cold *telemetry.Snapshot) {
	t.Helper()
	build := func(coldStart bool) *telemetry.Snapshot {
		res, err := session.Execute(workload.Scenario{
			Seed: 5, NumSessions: 500, NumPrefixes: 120,
			ColdStart: coldStart, Parallelism: 1,
		}, session.Options{Telemetry: true, SketchK: 64, Diagnose: true})
		if err != nil {
			t.Fatal(err)
		}
		sn := res.Snapshot
		// The labels RunCell would attach, pinned so the table header is
		// stable.
		name := "cold=false"
		if coldStart {
			name = "cold=true"
		}
		sn.Labels = map[string]string{"spec": "golden", "cell": name, "diagnosis": "on"}
		return sn
	}
	return build(false), build(true)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/analyze -run TestGolden -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s output drifted from golden file;\n got:\n%s\nwant:\n%s\n(refresh intentionally with -update)",
			name, got, want)
	}
}

// goldenTimelineSnapshot builds the fixture a -windows golden render
// pins: a diagnosed campaign with a mid-window network-degradation
// phase, so the table shows QoE collapsing during the phase and
// recovering after it.
func goldenTimelineSnapshot(t *testing.T) *telemetry.Snapshot {
	t.Helper()
	sc := workload.Scenario{
		Seed: 5, NumSessions: 500, NumPrefixes: 120, Parallelism: 1,
	}.WithDefaults()
	sc.Timeline = timeline.Timeline{Phases: []timeline.Phase{{
		Name:    "degrade",
		StartMS: 10 * 60e3,
		EndMS:   20 * 60e3,
		Effects: timeline.Effects{ThroughputFactor: 0.33, ExtraLossProb: 0.015, ExtraRTTms: 60},
	}}}
	res, err := session.Execute(sc, session.Options{
		Telemetry: true, SketchK: 64, Diagnose: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sn := res.Snapshot
	sn.Labels = map[string]string{"spec": "golden", "cell": "base", "diagnosis": "on", "timeline": "1-phase"}
	return sn
}

// TestGoldenWindows pins the analyze -windows per-window QoE and
// diagnosis tables byte for byte.
func TestGoldenWindows(t *testing.T) {
	checkGolden(t, "windows-degrade.golden", renderWindows(goldenTimelineSnapshot(t)))
}

// TestWindowsCoverageInvariant: the rendered report passes exactly when
// the window counts cover every session; dropping one window's counter
// must flip it to a failing result, and a windowless snapshot must fail
// with the explanatory note.
func TestWindowsCoverageInvariant(t *testing.T) {
	sn := goldenTimelineSnapshot(t)
	delete(sn.Counters, telemetry.WindowSessionsKey(sn.Windows[0].Name))
	if got := renderWindows(sn); !strings.Contains(got, "SHAPE MISMATCH") {
		t.Errorf("report with missing window counts did not fail: %s", got)
	}
	warm, _ := goldenSnapshots(t)
	if got := renderWindows(warm); !strings.Contains(got, "no timeline windows") {
		t.Errorf("windowless snapshot did not explain itself: %s", got)
	}
}

// goldenLiveSnapshot builds the fixture the live goldens pin: a
// diagnosed live campaign — six channels on the shared publish clock
// with one expected switch per viewing minute — so the cause-share
// table carries the live-edge-limited row and the snapshot rendering
// includes the stream-live figure.
func goldenLiveSnapshot(t *testing.T) *telemetry.Snapshot {
	t.Helper()
	res, err := session.Execute(workload.Scenario{
		Seed: 5, NumSessions: 500, NumPrefixes: 120, Parallelism: 1,
		Live: live.Config{Channels: 6, SwitchPerMin: 1},
	}, session.Options{Telemetry: true, SketchK: 64, Diagnose: true})
	if err != nil {
		t.Fatal(err)
	}
	sn := res.Snapshot
	sn.Labels = map[string]string{
		"spec": "golden", "cell": "base", "diagnosis": "on", "live": "6-channel",
	}
	return sn
}

// TestGoldenLive pins the live-campaign renderings byte for byte: the
// analyze diagnose cause-share table (with its live-edge-limited row)
// and the full analyze snapshot figure set including stream-live.
func TestGoldenLive(t *testing.T) {
	sn := goldenLiveSnapshot(t)
	checkGolden(t, "diagnose-live.golden", renderDiagnose(sn))
	var b strings.Builder
	for _, res := range figures.AllStreaming(sn) {
		b.WriteString(res.Render() + "\n")
	}
	checkGolden(t, "snapshot-live.golden", b.String())
}

// goldenProxyScenario is the fixture world the proxy goldens pin: a
// diagnosed proxied campaign at laptop scale. Two cohorts keep each
// egress safely above the rule-(ii) volume threshold (≈92
// sessions/cohort vs the default 50) at this session count.
func goldenProxyScenario() workload.Scenario {
	return workload.Scenario{
		Seed: 5, NumSessions: 800, NumPrefixes: 120, Parallelism: 1,
		Proxy: proxypop.Config{Share: 0.23, Cohorts: 2, EgressKbps: 25000},
	}
}

// TestGoldenProxy pins the proxied-campaign renderings byte for byte:
// the analyze diagnose cause-share table (with its proxy-tromboned
// row), the full analyze snapshot figure set including stream-proxy,
// and the analyze detect-proxies report with its ablation.
func TestGoldenProxy(t *testing.T) {
	res, err := session.Execute(goldenProxyScenario(), session.Options{
		Telemetry: true, SketchK: 64, Diagnose: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sn := res.Snapshot
	sn.Labels = map[string]string{
		"spec": "golden", "cell": "base", "diagnosis": "on", "proxy": "share=0.23",
	}
	checkGolden(t, "diagnose-proxy.golden", renderDiagnose(sn))
	var b strings.Builder
	for _, fr := range figures.AllStreaming(sn) {
		b.WriteString(fr.Render() + "\n")
	}
	checkGolden(t, "snapshot-proxy.golden", b.String())

	dres, err := session.Execute(goldenProxyScenario(), session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "detect-proxies.golden", renderDetectProxies(dres.Dataset, proxydetect.Config{}))
}

// TestDetectProxiesGroundTruthGate: the detect-proxies report passes on
// the proxied fixture and, with the ground truth stripped from the
// records (a trace from a proxy-less world), degrades to the
// reported-only note instead of claiming accuracy.
func TestDetectProxiesGroundTruthGate(t *testing.T) {
	res, err := session.Execute(goldenProxyScenario(), session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds := res.Dataset
	if fig := figures.ProxyDetection(ds, proxydetect.Config{}); !fig.Pass {
		t.Errorf("detect-proxies failed on the proxied fixture:\n%s", fig.Render())
	}
	stripped := &core.Dataset{Sessions: append([]core.SessionRecord(nil), ds.Sessions...), Chunks: ds.Chunks}
	for i := range stripped.Sessions {
		stripped.Sessions[i].Proxied = false
		stripped.Sessions[i].ProxyCohort = 0
	}
	fig := figures.ProxyDetection(stripped, proxydetect.Config{})
	if !strings.Contains(fig.Note, "no ground-truth") {
		t.Errorf("truth-less trace did not get the reported-only note: %+v", fig)
	}
}

// TestGoldenDiagnose pins the analyze -diagnose cause-share table byte
// for byte.
func TestGoldenDiagnose(t *testing.T) {
	warm, cold := goldenSnapshots(t)
	checkGolden(t, "diagnose-warm.golden", renderDiagnose(warm))
	checkGolden(t, "diagnose-cold.golden", renderDiagnose(cold))
}

// TestGoldenCompare pins the analyze -compare delta table — including
// the diag_share_* cause-share rows — byte for byte.
func TestGoldenCompare(t *testing.T) {
	warm, cold := goldenSnapshots(t)
	checkGolden(t, "compare-warm-cold.golden", renderCompare(warm, cold))
}

// TestDiagnoseCoverageInvariant: the rendered report passes exactly when
// the label counts cover every session; stripping the labels must flip
// it to a failing, noted result.
func TestDiagnoseCoverageInvariant(t *testing.T) {
	warm, _ := goldenSnapshots(t)
	for key := range warm.Counters {
		// Drop one label counter: coverage breaks.
		if key == telemetry.DiagSessionsKey(diagnose.Healthy) {
			delete(warm.Counters, key)
		}
	}
	got := renderDiagnose(warm)
	if !strings.Contains(got, "SHAPE MISMATCH") {
		t.Errorf("report with missing label counts did not fail: %s", got)
	}
}
