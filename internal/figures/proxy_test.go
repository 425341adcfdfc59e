package figures

import (
	"strings"
	"testing"

	"vidperf/internal/core"
	"vidperf/internal/diagnose"
	"vidperf/internal/proxydetect"
	"vidperf/internal/proxypop"
	"vidperf/internal/session"
	"vidperf/internal/workload"
)

// proxyScenario is the in-package proxied fixture: two cohorts sit
// safely above the §3 volume threshold at this session count.
func proxyScenario() workload.Scenario {
	return workload.Scenario{
		Seed:        17,
		NumSessions: 800,
		NumPrefixes: 150,
		Proxy:       proxypop.Config{Share: 0.23, Cohorts: 2, EgressKbps: 25000},
	}
}

// TestStreamProxyFigure: a proxied campaign's snapshot adds the
// stream-proxy figure, its coverage invariant holds, a per-egress row
// renders per cohort, and with diagnosis on the cause-share table
// carries the proxy-tromboned row.
func TestStreamProxyFigure(t *testing.T) {
	res, err := session.Execute(proxyScenario(), session.Options{
		Telemetry: true, SketchK: 64, Diagnose: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]Result{}
	for _, r := range AllStreaming(res.Snapshot) {
		seen[r.ID] = r
	}
	pr, ok := seen["stream-proxy"]
	if !ok {
		t.Fatal("proxied snapshot rendered no stream-proxy figure")
	}
	if !pr.Pass {
		t.Fatalf("stream-proxy shape check failed — measured %q", pr.Measured)
	}
	if pr.Title == "" || pr.Paper == "" || pr.Measured == "" {
		t.Fatalf("stream-proxy incomplete metadata: %+v", pr)
	}
	cohorts := 0
	for _, line := range pr.Lines {
		if strings.HasPrefix(line, "egress=") {
			cohorts++
		}
	}
	if cohorts != 2 {
		t.Errorf("stream-proxy rendered %d egress rows, want 2", cohorts)
	}
	dg, ok := seen["stream-diagnosis"]
	if !ok {
		t.Fatal("diagnosed snapshot rendered no stream-diagnosis figure")
	}
	if !strings.Contains(dg.Render(), string(diagnose.ProxyTromboned)) {
		t.Errorf("stream-diagnosis omits the %s row", diagnose.ProxyTromboned)
	}
	// A plain campaign must not render the figure.
	plain, err := session.Execute(workload.Scenario{
		Seed: 17, NumSessions: 200, NumPrefixes: 80,
	}, session.Options{Telemetry: true, SketchK: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range AllStreaming(plain.Snapshot) {
		if r.ID == "stream-proxy" {
			t.Fatal("plain snapshot rendered a stream-proxy figure")
		}
	}
}

// TestProxyDetectionFigure: the trace-backed §3 report passes on a
// proxied trace (precision, share error, tail deflation), renders the
// per-rule and ablation lines, and degrades to the reported-only note
// on a trace without ground truth.
func TestProxyDetectionFigure(t *testing.T) {
	res, err := session.Execute(proxyScenario(), session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := ProxyDetection(res.Dataset, proxydetect.Config{})
	if !r.Pass {
		t.Fatalf("detection report failed on the proxied fixture:\n%s", r.Render())
	}
	text := r.Render()
	for _, want := range []string{"rule (i)", "rule (ii)", "confusion:", "CV(SRTT)", "| kept"} {
		if !strings.Contains(text, want) {
			t.Errorf("report omits %q:\n%s", want, text)
		}
	}

	stripped := &core.Dataset{Sessions: append([]core.SessionRecord(nil), res.Dataset.Sessions...)}
	for i := range stripped.Sessions {
		stripped.Sessions[i].Proxied = false
		stripped.Sessions[i].ProxyCohort = 0
	}
	nr := ProxyDetection(stripped, proxydetect.Config{})
	if !strings.Contains(nr.Note, "no ground-truth") {
		t.Errorf("truth-less trace did not get the reported-only note: %+v", nr)
	}
	if !nr.Pass {
		t.Error("reported-only mode must still pass on a non-empty trace")
	}
}
