// proxy.go renders the proxied-population views: the sketch-backed
// STREAM-PROXY figure (Fig. 9/Table 4 shape — CV(SRTT) with and without
// proxied cohorts) and the trace-backed §3 detection report with its
// filtered-vs-unfiltered ablation (internal/proxydetect).
package figures

import (
	"fmt"

	"vidperf/internal/analysis"
	"vidperf/internal/core"
	"vidperf/internal/proxydetect"
)

// streamProxyResult renders the proxied-population report: the
// proxied-vs-direct CV(SRTT) and startup splits, the per-egress audience
// mix, and the detector-signal counters (internal/proxypop). Only
// rendered for snapshots from proxied campaigns.
func streamProxyResult(p analysis.StreamingProxy) Result {
	r := Result{
		ID:    "stream-proxy",
		Title: "Proxied populations: CV(SRTT) and startup, proxied vs direct",
		Paper: "§3/§4.2, Fig. 9 + Table 4: tromboned shared-egress cohorts dominate the high-CV(SRTT) tail",
		Measured: fmt.Sprintf("sessions=%d proxied=%d (%s) mismatch=%d cohorts=%d; CV p90 proxied=%.3g direct=%.3g",
			p.Sessions, p.Proxied, pct(p.ProxiedShare()), p.IPMismatch, len(p.Cohorts),
			p.CVProxied.Quantile(0.9), p.CVClear.Quantile(0.9)),
	}
	r.Lines = append(r.Lines,
		sketchLine("CV(SRTT), proxied", p.CVProxied),
		sketchLine("CV(SRTT), direct", p.CVClear),
		sketchLine("startup (ms), proxied", p.StartupProxied),
		sketchLine("startup (ms), direct", p.StartupClear),
	)
	for _, d := range p.Cohorts {
		r.Lines = append(r.Lines, fmt.Sprintf("egress=%-6d %8d sessions", d.IntValue(), d.N))
	}
	// Coverage invariant (every session lands in exactly one CV split)
	// plus the Table 4 shape: the proxied tail sits above the direct one.
	r.Pass = p.Sessions > 0 && p.Proxied > 0 &&
		p.CVProxied.N()+p.CVClear.N() == p.Sessions &&
		p.CVProxied.Quantile(0.9) > p.CVClear.Quantile(0.9)
	return r
}

// ProxyDetection runs the §3 detector over a materialized trace and
// renders the detection report: detected share, precision/recall
// against the model's ground truth, per-rule counts, and the
// filtered-vs-unfiltered ablation (what the paper's numbers would look
// like had proxies stayed in).
func ProxyDetection(ds *core.Dataset, cfg proxydetect.Config) Result {
	verdicts := proxydetect.Detect(ds.Sessions, cfg)
	rep := proxydetect.Evaluate(ds.Sessions, verdicts)
	abl := proxydetect.Ablate(ds.Sessions, verdicts)
	eff := cfg.WithDefaults()

	r := Result{
		ID:    "detect-proxies",
		Title: "§3 proxy detection: rules (i)+(ii) vs ground truth, with ablation",
		Paper: "§3: IP-mismatch + shared-egress volume rules remove ~23% of sessions; the paper keeps 77%",
		Measured: fmt.Sprintf("sessions=%d detected=%d (%s) truth=%d (%s) precision=%.3f recall=%.3f",
			rep.Sessions, rep.Detected, pct(rep.DetectedShare()),
			rep.TruthProxied, pct(rep.TruthShare()), rep.Precision(), rep.Recall()),
	}
	r.Lines = append(r.Lines,
		fmt.Sprintf("rule (i)  ip-mismatch   %8d sessions", rep.MismatchDetected),
		fmt.Sprintf("rule (ii) volume>%-5d  %8d sessions", eff.MaxSessionsPerEgress, rep.VolumeDetected),
		fmt.Sprintf("confusion: tp=%d fp=%d fn=%d", rep.TruePositives, rep.FalsePositives, rep.FalseNegatives),
		ablationLine("CV(SRTT)", abl.All.SRTTCV, abl.Kept.SRTTCV),
		ablationLine("startup (ms)", abl.All.StartupMS, abl.Kept.StartupMS),
		ablationLine("rebuffer rate", abl.All.RebufferRate, abl.Kept.RebufferRate),
	)
	if rep.TruthProxied > 0 {
		// Judged against ground truth: the detector must recover the
		// configured share (±3 points), be near-certain about what it
		// removes, and removing it must deflate the CV(SRTT) tail — the
		// Table 4/Fig. 9 shape of the ablation.
		shareErr := rep.DetectedShare() - rep.TruthShare()
		if shareErr < 0 {
			shareErr = -shareErr
		}
		r.Pass = rep.Precision() >= 0.95 && shareErr <= 0.03 &&
			abl.Kept.SRTTCV.P90 < abl.All.SRTTCV.P90
	} else {
		r.Pass = rep.Sessions > 0
		r.Note = "trace carries no ground-truth proxied sessions; detection reported, accuracy not judged"
	}
	return r
}

// ablationLine renders one metric's all-vs-kept quantile comparison.
func ablationLine(label string, all, kept proxydetect.Quantiles) string {
	return fmt.Sprintf("%-14s all  n=%-7d p50=%-9.3g p90=%-9.3g p99=%-9.3g | kept n=%-7d p50=%-9.3g p90=%-9.3g p99=%-9.3g",
		label, all.N, all.P50, all.P90, all.P99,
		kept.N, kept.P50, kept.P90, kept.P99)
}
