// Quickstart: simulate a small measurement campaign, apply the paper's
// preprocessing, and print the headline characterization numbers.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"vidperf/internal/analysis"
	"vidperf/internal/catalog"
	"vidperf/internal/proxydetect"
	"vidperf/internal/session"
	"vidperf/internal/workload"
)

func main() {
	// 1. Describe the campaign: 3000 sessions against the default CDN
	//    (6 PoPs x 14 ATS-like servers), default client population.
	sc := workload.Scenario{
		Seed:        42,
		NumSessions: 3000,
		NumPrefixes: 500,
		Catalog:     catalog.Config{NumVideos: 2000},
	}

	// 2. Run the end-to-end simulation: every chunk is instrumented at
	//    the player, the CDN application layer, and the server TCP stack.
	res, err := session.Execute(sc, session.Options{})
	if err != nil {
		log.Fatal(err)
	}
	raw := res.Dataset
	fmt.Printf("simulated %v\n", raw)

	// 3. Preprocess exactly like the paper's §3: drop proxy sessions.
	ds := proxydetect.Keep(raw, proxydetect.Detect(raw.Sessions, proxydetect.Config{}))
	fmt.Printf("proxy filter kept %.1f%% of sessions (paper: 77%%)\n\n",
		100*float64(len(ds.Sessions))/float64(len(raw.Sessions)))

	// 4. Characterize.
	br := analysis.BreakdownCDNLatency(ds)
	fmt.Printf("CDN:     median server latency %.1f ms (hit) vs %.1f ms (miss); retry-timer share %.0f%%\n",
		br.MedianHitMS, br.MedianMissMS, 100*br.RetryTimerChunkShare)

	ld := analysis.ComputeLatencyDistributions(ds)
	fmt.Printf("network: median srtt_min %.1f ms; P(srtt_min > 100 ms) = %.1f%%\n",
		ld.SRTTMin.Quantile(0.5), 100*ld.SRTTMin.CCDFAt(100))

	ls := analysis.SplitByLoss(ds)
	fmt.Printf("loss:    %.0f%% of sessions loss-free; P(rebuf > 1%%) %.2f%% with loss vs %.2f%% without\n",
		100*ls.NoLossShare, 100*ls.RebufLoss.CCDFAt(1), 100*ls.RebufNoLoss.CCDFAt(1))

	ps := analysis.ComputePersistentStack(ds, 50, 3)
	fmt.Printf("client:  %.1f%% of chunks show download-stack latency (Eq. 5); worst platforms:\n",
		100*ps.NonZeroShare)
	for _, row := range ps.Top {
		fmt.Printf("         %-16s mean D_DS %.0f ms (%d chunks)\n",
			row.Browser+"/"+row.OS, row.MeanDDS, row.Chunks)
	}

	rh := analysis.CheckRateHypothesis(ds)
	fmt.Printf("render:  %.1f%% of software-rendered chunks obey the 1.5 sec/sec rule\n",
		100*rh.ConfirmShare)
}
