// Command repro is the one-shot reproduction driver: it simulates the
// default scenario, applies the paper's §3 preprocessing (the
// internal/proxydetect rules), regenerates every
// table and figure, and writes EXPERIMENTS.md recording paper-reported vs
// measured results for each.
//
// Usage:
//
//	repro [-sessions 20000] [-seed 2016] [-out EXPERIMENTS.md] [-parallel 0]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"vidperf/internal/analysis"
	"vidperf/internal/catalog"
	"vidperf/internal/figures"
	"vidperf/internal/proxydetect"
	"vidperf/internal/session"
	"vidperf/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")

	var (
		sessions = flag.Int("sessions", 20000, "sessions to simulate")
		prefixes = flag.Int("prefixes", 2500, "client /24 prefixes")
		videos   = flag.Int("videos", 6000, "catalog size")
		seed     = flag.Uint64("seed", 2016, "scenario seed")
		parallel = flag.Int("parallel", 0, "max server-slot shards simulated concurrently (0 = GOMAXPROCS)")
		out      = flag.String("out", "EXPERIMENTS.md", "output report path")
	)
	flag.Parse()

	start := time.Now()
	sc := workload.Scenario{
		Seed:              *seed,
		NumSessions:       *sessions,
		NumPrefixes:       *prefixes,
		MeanWatchedChunks: 12,
		Catalog:           catalog.Config{NumVideos: *videos},
		Parallelism:       *parallel,
	}
	log.Printf("simulating %d sessions over %d prefixes, %d-title catalog (seed=%d)",
		*sessions, *prefixes, *videos, *seed)
	res, err := session.Execute(sc, session.Options{})
	if err != nil {
		log.Fatal(err)
	}
	raw := res.Dataset
	ds := proxydetect.Keep(raw, proxydetect.Detect(raw.Sessions, proxydetect.Config{}))
	keptFrac := float64(len(ds.Sessions)) / float64(len(raw.Sessions))
	log.Printf("simulated %s; preprocessing kept %.1f%% of sessions (paper: 77%%)",
		raw, 100*keptFrac)

	results := figures.All(ds, *videos)
	st := analysis.ComputeDatasetStats(ds)

	var b strings.Builder
	fmt.Fprintf(&b, "# EXPERIMENTS — paper vs measured\n\n")
	fmt.Fprintf(&b, "Reproduction of Ghasemi et al., *Performance Characterization of a\n")
	fmt.Fprintf(&b, "Commercial Video Streaming Service* (IMC 2016), on the vidperf simulator.\n\n")
	fmt.Fprintf(&b, "Generated by `cmd/repro` — seed %d, %d sessions, %d prefixes,\n",
		*seed, *sessions, *prefixes)
	fmt.Fprintf(&b, "%d-title catalog, run %s.\n\n", *videos, time.Now().Format("2006-01-02"))
	fmt.Fprintf(&b, "Absolute numbers are not expected to match the paper (its substrate was\n")
	fmt.Fprintf(&b, "Yahoo production servers and 65M sessions over 18 days; ours is a\n")
	fmt.Fprintf(&b, "calibrated simulator at laptop scale). Every figure below therefore\n")
	fmt.Fprintf(&b, "reports the paper's claim, the measured value, and whether the *shape*\n")
	fmt.Fprintf(&b, "(direction, ordering, crossover) reproduces.\n\n")

	fmt.Fprintf(&b, "## Dataset (paper §3 calibration)\n\n```\n")
	fmt.Fprintf(&b, "sessions (post-filter)   %d\n", st.Sessions)
	fmt.Fprintf(&b, "chunks                   %d\n", st.Chunks)
	fmt.Fprintf(&b, "preprocessing kept       %.1f%%   (paper: 77%%)\n", 100*keptFrac)
	fmt.Fprintf(&b, "US client share          %.1f%%   (paper: >93%% North America)\n", 100*st.USClientShare)
	fmt.Fprintf(&b, "browser mix              Chrome %.0f%% / Firefox %.0f%% / IE %.0f%% / Safari %.0f%%\n",
		100*st.BrowserShare["Chrome"], 100*st.BrowserShare["Firefox"],
		100*st.BrowserShare["IE"], 100*st.BrowserShare["Safari"])
	fmt.Fprintf(&b, "                         (paper: 43 / 37 / 13 / 6)\n")
	fmt.Fprintf(&b, "OS mix                   Windows %.1f%% / Mac %.1f%%   (paper: 88.5 / 9.4)\n",
		100*st.OSShare["Windows"], 100*st.OSShare["Mac"])
	fmt.Fprintf(&b, "top-10%% video play share %.1f%%   (paper: ~66%%)\n", 100*st.Top10VideoShare)
	fmt.Fprintf(&b, "overall cache miss rate  %.2f%%   (paper: ~2%%)\n", 100*st.OverallMissRate)
	fmt.Fprintf(&b, "```\n\n## Figures and tables\n\n")

	pass := 0
	for _, res := range results {
		b.WriteString(res.Render())
		b.WriteString("\n")
		if res.Pass {
			pass++
		}
	}
	fmt.Fprintf(&b, "## Verdict\n\n%d/%d figures and tables reproduce their qualitative shape.\n",
		pass, len(results))
	fmt.Fprintf(&b, "Wall time: %s.\n", time.Since(start).Round(time.Second))

	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Print(b.String())
	log.Printf("wrote %s (%d/%d pass) in %s", *out, pass, len(results),
		time.Since(start).Round(time.Second))
	if pass < len(results) {
		os.Exit(1)
	}
}
