// Command repro is the paper-reproduction driver: it runs an experiment
// spec in collect mode, applies the paper's §3 preprocessing (the
// internal/proxydetect rules) to each cell's dataset, regenerates every
// table and figure, and writes EXPERIMENTS.md recording paper-reported vs
// measured results for each.
//
// Usage:
//
//	repro [-spec examples/specs/paper-repro.json] [-seed 2016] [-sessions 20000]
//	      [-prefixes 2500] [-videos 6000] [-parallel 0] [-out EXPERIMENTS.md]
//
// Without -spec the run is the built-in paper-repro preset. The scenario
// flags follow the override rule vodsim and sweep share: each one the
// user sets replaces the spec key internal/experiment's flag table maps
// it to, and the result is validated like a spec file.
//
// The report renders the baseline cell (the spec's first cell, or the
// one its "baseline" names) in full. A spec with more than one cell then
// gains a verdict line per cell and, per figure, the number of cells it
// fails at. Over paper-seeds, a seed axis on paper-repro, that is the
// seed-set report: how often each figure's verdict survives a new
// realization. repro exits 1 unless every cell reproduces every figure
// and table.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"vidperf/internal/analysis"
	"vidperf/internal/atomicfile"
	"vidperf/internal/experiment"
	"vidperf/internal/figures"
	"vidperf/internal/logging"
	"vidperf/internal/proxydetect"
	"vidperf/internal/session"
	"vidperf/internal/workload"
)

func main() {
	log, _ := logging.New("") // the text handler; "" is always accepted
	fs, specPath, out := parseFlags(os.Args[1:])
	sp, cells, err := configure(fs, *specPath)
	if err != nil {
		logging.Fatal(log, "invalid run", slog.Any("err", err))
	}
	report, ok, err := reproduce(log, sp, cells)
	if err != nil {
		logging.Fatal(log, "run failed", slog.Any("err", err))
	}
	if err := atomicfile.Write(*out, func(f *os.File) error {
		_, err := f.WriteString(report)
		return err
	}); err != nil {
		logging.Fatal(log, "write failed", slog.Any("err", err))
	}
	fmt.Print(report)
	log.Info("wrote report", slog.String("path", *out), slog.Bool("reproduced", ok))
	if !ok {
		os.Exit(1)
	}
}

// parseFlags parses repro's command line. The scenario flags are read
// back from the flag set by configure.
func parseFlags(args []string) (fs *flag.FlagSet, specPath, out *string) {
	fs = flag.NewFlagSet("repro", flag.ExitOnError)
	specPath = fs.String("spec", "", "experiment spec (JSON, see examples/specs/); default: the paper-repro preset")
	fs.Uint64("seed", 2016, "scenario seed; sets the spec's seed")
	fs.Int("sessions", 20000, "sessions to simulate; sets the spec's sessions")
	fs.Int("prefixes", 2500, "client /24 prefixes; sets the spec's prefixes")
	fs.Int("videos", 6000, "catalog size; sets the spec's videos")
	fs.Int("parallel", 0, "max server-slot shards simulated concurrently (0 = GOMAXPROCS); sets the spec's parallel")
	out = fs.String("out", "EXPERIMENTS.md", "output report path")
	fs.Parse(args)
	return fs, specPath, out
}

// configure builds the run's spec, the -spec file or the paper-repro
// preset, lays the scenario flags the user set over it, validates it and
// expands it into cells.
func configure(fs *flag.FlagSet, specPath string) (*experiment.Spec, []experiment.Cell, error) {
	if fs.NArg() > 0 {
		return nil, nil, fmt.Errorf("unexpected arguments %q (all options are flags)", fs.Args())
	}
	var sp *experiment.Spec
	var err error
	if specPath != "" {
		sp, err = experiment.LoadFile(specPath)
	} else {
		sp, err = experiment.Preset("paper-repro")
	}
	if err != nil {
		return nil, nil, err
	}
	if err := sp.OverrideFlags(fs.Visit); err != nil {
		return nil, nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, nil, err
	}
	cells, err := sp.Expand()
	if err != nil {
		return nil, nil, err
	}
	return sp, cells, nil
}

// reproduce runs every cell one after another and returns the report
// and whether every cell reproduced every figure and table. Of a cell
// other than the baseline only its pass bits are kept.
func reproduce(log *slog.Logger, sp *experiment.Spec, cells []experiment.Cell) (string, bool, error) {
	start := time.Now()
	base := sp.BaselineIndex(cells)
	var b strings.Builder
	var ids []string
	passes := make([][]bool, len(cells))
	for i, cell := range cells {
		sc := cell.Scenario.WithDefaults()
		log.Info("simulating", slog.String("cell", cell.Name),
			slog.Int("sessions", sc.NumSessions), slog.Int("prefixes", sc.NumPrefixes),
			slog.Int("videos", sc.Catalog.NumVideos), slog.Uint64("seed", sc.Seed))
		res, err := session.Execute(cell.Scenario, session.Options{})
		if err != nil {
			return "", false, fmt.Errorf("cell %s: %w", cell.Name, err)
		}
		raw := res.Dataset
		ds := proxydetect.Keep(raw, proxydetect.Detect(raw.Sessions, proxydetect.Config{}))
		keptFrac := float64(len(ds.Sessions)) / float64(len(raw.Sessions))
		results := figures.All(ds, sc.Catalog.NumVideos)
		ids = make([]string, len(results))
		passes[i] = make([]bool, len(results))
		for j, r := range results {
			ids[j], passes[i][j] = strings.ToUpper(r.ID), r.Pass
		}
		log.Info("reproduced", slog.String("cell", cell.Name), slog.String("dataset", raw.String()),
			slog.String("kept", fmt.Sprintf("%.1f%%", 100*keptFrac)),
			slog.Int("pass", count(passes[i])), slog.Int("of", len(results)))
		if i == base {
			writeCell(&b, sc, analysis.ComputeDatasetStats(ds), keptFrac, results)
		}
	}
	clean := 0
	for _, p := range passes {
		if count(p) == len(p) {
			clean++
		}
	}
	if len(cells) > 1 {
		writeCells(&b, sp, cells, ids, passes, clean)
	}
	fmt.Fprintf(&b, "Wall time: %s.\n", time.Since(start).Round(time.Second))
	return b.String(), clean == len(cells), nil
}

// count returns how many of bits are set.
func count(bits []bool) int {
	n := 0
	for _, bit := range bits {
		if bit {
			n++
		}
	}
	return n
}

// writeCell renders one cell in full: the header, the §3 calibration
// block, every figure and table, and its verdict.
func writeCell(b *strings.Builder, sc workload.Scenario, st analysis.DatasetStats, keptFrac float64, results []figures.Result) {
	fmt.Fprintf(b, "# EXPERIMENTS — paper vs measured\n\n")
	fmt.Fprintf(b, "Reproduction of Ghasemi et al., *Performance Characterization of a\n")
	fmt.Fprintf(b, "Commercial Video Streaming Service* (IMC 2016), on the vidperf simulator.\n\n")
	fmt.Fprintf(b, "Generated by `cmd/repro` — seed %d, %d sessions, %d prefixes,\n",
		sc.Seed, sc.NumSessions, sc.NumPrefixes)
	fmt.Fprintf(b, "%d-title catalog, run %s.\n\n", sc.Catalog.NumVideos, time.Now().Format("2006-01-02"))
	fmt.Fprintf(b, "Absolute numbers are not expected to match the paper (its substrate was\n")
	fmt.Fprintf(b, "Yahoo production servers and 65M sessions over 18 days; ours is a\n")
	fmt.Fprintf(b, "calibrated simulator at laptop scale). Every figure below therefore\n")
	fmt.Fprintf(b, "reports the paper's claim, the measured value, and whether the *shape*\n")
	fmt.Fprintf(b, "(direction, ordering, crossover) reproduces.\n\n")

	fmt.Fprintf(b, "## Dataset (paper §3 calibration)\n\n```\n")
	fmt.Fprintf(b, "sessions (post-filter)   %d\n", st.Sessions)
	fmt.Fprintf(b, "chunks                   %d\n", st.Chunks)
	fmt.Fprintf(b, "preprocessing kept       %.1f%%   (paper: 77%%)\n", 100*keptFrac)
	fmt.Fprintf(b, "US client share          %.1f%%   (paper: >93%% North America)\n", 100*st.USClientShare)
	fmt.Fprintf(b, "browser mix              Chrome %.0f%% / Firefox %.0f%% / IE %.0f%% / Safari %.0f%%\n",
		100*st.BrowserShare["Chrome"], 100*st.BrowserShare["Firefox"],
		100*st.BrowserShare["IE"], 100*st.BrowserShare["Safari"])
	fmt.Fprintf(b, "                         (paper: 43 / 37 / 13 / 6)\n")
	fmt.Fprintf(b, "OS mix                   Windows %.1f%% / Mac %.1f%%   (paper: 88.5 / 9.4)\n",
		100*st.OSShare["Windows"], 100*st.OSShare["Mac"])
	fmt.Fprintf(b, "top-10%% video play share %.1f%%   (paper: ~66%%)\n", 100*st.Top10VideoShare)
	fmt.Fprintf(b, "overall cache miss rate  %.2f%%   (paper: ~2%%)\n", 100*st.OverallMissRate)
	fmt.Fprintf(b, "```\n\n## Figures and tables\n\n")

	pass := 0
	for _, res := range results {
		b.WriteString(res.Render())
		b.WriteString("\n")
		if res.Pass {
			pass++
		}
	}
	fmt.Fprintf(b, "## Verdict\n\n%d/%d figures and tables reproduce their qualitative shape.\n",
		pass, len(results))
}

// writeCells renders every cell's verdict, naming the figures it fails,
// and for each figure the number of cells it fails at; clean cells pass
// every figure.
func writeCells(b *strings.Builder, sp *experiment.Spec, cells []experiment.Cell, ids []string, passes [][]bool, clean int) {
	width := 0
	for _, c := range cells {
		width = max(width, len(c.Name))
	}
	fmt.Fprintf(b, "\n## Cells\n\n%d of %d cells of spec %s reproduce every figure and table;\n",
		clean, len(cells), sp.Name)
	fmt.Fprintf(b, "the baseline cell %s is the one rendered above.\n\n```\n", cells[sp.BaselineIndex(cells)].Name)
	fails := make([]int, len(ids))
	for i, c := range cells {
		var failed []string
		for j, pass := range passes[i] {
			if !pass {
				failed = append(failed, ids[j])
				fails[j]++
			}
		}
		line := fmt.Sprintf("%-*s %d/%d", width, c.Name, count(passes[i]), len(ids))
		if len(failed) > 0 {
			line += "  fails " + strings.Join(failed, " ")
		}
		fmt.Fprintln(b, line)
	}
	fmt.Fprintf(b, "```\n\nCells at which each figure and table fails, of %d:\n\n```\n", len(cells))
	for j, id := range ids {
		fmt.Fprintf(b, "%-6s %d\n", id, fails[j])
	}
	fmt.Fprintf(b, "```\n\n")
}
