// Command sweep runs a declarative experiment campaign: it expands a
// spec (a JSON file from examples/specs/ or a built-in preset) into its
// cell grid, executes every cell through the streaming-telemetry
// pipeline with bounded parallelism, and prints a per-cell summary table
// plus the A/B deltas of each cell against the spec's baseline cell.
// The hardcoded one-factor sweeps this command used to contain now live
// as specs: examples/specs/zipf-sweep.json expands to exactly the
// scenarios the old -factor zipf code built (internal/experiment's
// parity tests pin every cell's scenario and the runner's snapshot
// bytes). Reported metrics differ from the old sweep in one declared
// way: they come from the streaming telemetry pipeline, which keeps no
// joined dataset and therefore cannot apply the §3 proxy preprocessing
// the old sweep ran before measuring.
//
// Usage:
//
//	sweep -spec examples/specs/zipf-sweep.json [-out snapshots/] [-workers 2]
//	sweep -preset cache-policy-matrix [-sessions 1000]
//	sweep -list
//
// With -out each cell writes its labelled snapshot to <dir>/<cell>.json
// alongside a manifest.json recording the generating spec (name,
// content hash, cell list, seeds) — the provenance record `analyze
// ingest` uses to fold the whole directory into a campaign store. A
// directory already claimed by a different spec's manifest is refused
// rather than silently overwritten. The snapshots are also directly
// readable by `analyze snapshot`, `analyze compare`, `analyze
// diagnose`, and (for specs with a "timeline" block) `analyze
// windows`. -sessions and -parallel, when set to a value other than
// their 0 default, override the spec's scenario keys of the same name,
// and so every cell, under the override rule vodsim uses (the old
// sweep's laptop-scale knobs); -full-deltas
// appends the complete per-metric delta table for every non-baseline
// cell instead of the compact summary columns. -cpuprofile/-memprofile
// write runtime/pprof profiles covering the whole campaign (see
// ARCHITECTURE.md, "Performance model", for the profiling workflow).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync"

	"vidperf/internal/analysis"
	"vidperf/internal/experiment"
	"vidperf/internal/figures"
	"vidperf/internal/logging"
	"vidperf/internal/profiling"
	"vidperf/internal/telemetry"
)

var (
	specPath   = flag.String("spec", "", "experiment spec file (JSON; see examples/specs/)")
	preset     = flag.String("preset", "", "built-in spec name (see -list); alternative to -spec")
	list       = flag.Bool("list", false, "list built-in presets and exit")
	outDir     = flag.String("out", "", "directory for per-cell snapshot files (omit to keep snapshots in memory)")
	workers    = flag.Int("workers", 1, "max cells simulated concurrently")
	_          = flag.Int("sessions", 0, "override the spec's sessions key, and so every cell's session count (0 = per spec)")
	_          = flag.Int("parallel", 0, "override the spec's parallel key, and so every cell's shard parallelism (0 = per spec)")
	fullDeltas = flag.Bool("full-deltas", false, "print the full per-metric delta table for each non-baseline cell")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file (go tool pprof)")
	memProfile = flag.String("memprofile", "", "write an allocation profile to this file on successful exit (go tool pprof)")
	logFormat  = flag.String("log-format", "text", "stderr log format: text or json")
)

func main() {
	flag.Parse()
	log, err := logging.New(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	if len(flag.Args()) > 0 {
		logging.Fatal(log, "invalid flags",
			slog.String("err", fmt.Sprintf("unexpected arguments %q (all options are flags)", flag.Args())))
	}

	if *list {
		for _, name := range experiment.Presets() {
			sp, err := experiment.Preset(name)
			if err != nil {
				logging.Fatal(log, "preset load failed", slog.Any("err", err))
			}
			fmt.Printf("%-22s %s\n", name, sp.Description)
		}
		return
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		logging.Fatal(log, "profiling setup failed", slog.Any("err", err))
	}
	// Runs on the normal exit path; fatal error paths (os.Exit) skip it,
	// which is fine — a campaign that died produced no profile worth
	// keeping.
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Error("profiling stop failed", slog.Any("err", err))
		}
	}()

	sp := loadSpec(log)
	cells, err := sp.Expand()
	if err != nil {
		logging.Fatal(log, "spec expansion failed", slog.Any("err", err))
	}

	log.Info("campaign starting",
		slog.String("campaign", sp.Name), slog.Int("cells", len(cells)),
		slog.Int("workers", *workers), slog.Int("sketch_k", sp.EffectiveSketchK()))
	var mu sync.Mutex
	done := 0
	res, err := experiment.RunCampaign(sp, experiment.RunOptions{
		Workers: *workers,
		OutDir:  *outDir,
		Progress: func(cell experiment.Cell, err error) {
			mu.Lock()
			done++
			n := done
			mu.Unlock()
			if err != nil {
				log.Error("cell failed", slog.Int("n", n), slog.Int("cells", len(cells)),
					slog.String("cell", cell.Name), slog.Any("err", err))
				return
			}
			log.Info("cell done", slog.Int("n", n), slog.Int("cells", len(cells)),
				slog.String("cell", cell.Name))
		},
	})
	if err != nil {
		logging.Fatal(log, "campaign failed", slog.Any("err", err))
	}

	printSummary(res)
	if *fullDeltas {
		base := res.Baseline()
		for i := range res.Cells {
			if i == res.BaselineIndex {
				continue
			}
			fmt.Println(figures.StreamCompare(base.Snapshot, res.Cells[i].Snapshot).Render())
		}
	}
	if *outDir != "" {
		log.Info("wrote snapshots", slog.Int("cells", len(res.Cells)), slog.String("dir", *outDir),
			slog.String("manifest", experiment.ManifestFileName))
	}
}

// loadSpec loads the -spec file or -preset and applies the -sessions and
// -parallel overrides. Cell scenarios inherit the spec scenario, so the
// overrides apply once here and reach every cell through Expand.
func loadSpec(log *slog.Logger) *experiment.Spec {
	var sp *experiment.Spec
	var err error
	switch {
	case *specPath != "" && *preset != "":
		logging.Fatal(log, "invalid flags", slog.String("err", "-spec and -preset are mutually exclusive"))
	case *specPath != "":
		sp, err = experiment.LoadFile(*specPath)
	case *preset != "":
		sp, err = experiment.Preset(*preset)
	default:
		logging.Fatal(log, "invalid flags", slog.String("err", "one of -spec, -preset, or -list is required"))
	}
	if err != nil {
		logging.Fatal(log, "spec load failed", slog.Any("err", err))
	}
	// -sessions and -parallel default to 0, "per spec": only a value
	// other than the default overrides.
	changed := func(fn func(*flag.Flag)) {
		flag.Visit(func(f *flag.Flag) {
			if f.Value.String() != f.DefValue {
				fn(f)
			}
		})
	}
	if err := sp.OverrideFlags(changed); err != nil {
		logging.Fatal(log, "invalid flags", slog.Any("err", err))
	}
	if err := sp.Validate(); err != nil {
		logging.Fatal(log, "invalid flags", slog.Any("err", err))
	}
	return sp
}

// printSummary renders the per-cell table: headline metrics per cell
// plus compact deltas against the baseline cell.
func printSummary(res *experiment.CampaignResult) {
	base := res.Baseline()
	fmt.Printf("\n== campaign %s: %d cells, baseline %s ==\n",
		res.Spec.Name, len(res.Cells), base.Cell.Name)
	fmt.Printf("%-34s %10s %9s %8s %8s %11s %10s %9s\n",
		"cell", "seed", "sessions", "hit%", "retry%", "startup p50", "rebuf p90", "Δhit%")
	baseHit := base.Snapshot.ChunkShare(telemetry.CounterChunksHit)
	for i := range res.Cells {
		c := &res.Cells[i]
		sn := c.Snapshot
		hit := sn.ChunkShare(telemetry.CounterChunksHit)
		marker := ""
		dHit := "-"
		if i == res.BaselineIndex {
			marker = " *"
		} else {
			dHit = fmt.Sprintf("%+.2f", 100*(hit-baseHit))
		}
		fmt.Printf("%-34s %10d %9d %8.2f %8.2f %11.0f %10.4f %9s%s\n",
			c.Cell.Name, c.Cell.Scenario.Seed,
			sn.Counter(telemetry.CounterSessions),
			100*hit,
			100*sn.ChunkShare(telemetry.CounterChunksRetryTimer),
			sn.Sketch(telemetry.MetricStartupMS).Quantile(0.5),
			sn.Sketch(telemetry.MetricRebufferRate).Quantile(0.9),
			dHit, marker)
	}
	fmt.Println("(* baseline; Δ columns are candidate − baseline. analysis quantiles:",
		quantileList(), "— run with -full-deltas or analyze compare for the full tables)")
}

func quantileList() string {
	parts := make([]string, len(analysis.CompareQuantiles))
	for i, q := range analysis.CompareQuantiles {
		parts[i] = fmt.Sprintf("p%.0f", q*100)
	}
	return strings.Join(parts, "/")
}
