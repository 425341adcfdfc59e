// Command analyze is the reporting side of the pipeline: it renders
// paper figures from traces and snapshots, diffs runs, and fronts the
// campaign store (internal/store) that turns sweep directories into
// queryable league tables.
//
// Usage:
//
//	analyze trace [-only fig05,table4] [-max-rank 6000] [-filter-proxies=false] [trace.jsonl]
//	analyze snapshot [-only stream-cdn] snap.json
//	analyze compare baseline.json candidate.json
//	analyze diagnose snap.json
//	analyze windows snap.json
//	analyze detect-proxies [-max-sessions-per-egress 50] trace.jsonl
//	analyze ingest -store campaigns.json [-sweep name] dir|snap.json ...
//	analyze query -store campaigns.json [-sweep name] [-where k=v,...] [-group-by axis] [-rank metric] [-desc] [-limit n] [-json]
//	analyze diff-sweep -store campaigns.json [-json] base candidate
//
// analyze trace reads a JSONL trace produced by cmd/vodsim and
// regenerates the paper's figures and tables, printing each with the
// paper's reported result alongside the measured one. analyze snapshot
// does the same from a telemetry snapshot (vodsim -stream): the
// sketch-backed subset of the figures is rendered from the
// bounded-memory aggregates instead of per-record data. The §3 proxy
// preprocessing (internal/proxydetect's Detect and Keep) needs the joined
// dataset, so -filter-proxies exists only in trace mode.
//
// analyze compare diffs two snapshots: the first argument is the
// baseline, the second the candidate, and the output is the A/B delta
// table (quantile shifts per sketch metric, counter movements, derived
// rates — including per-label cause-share deltas when the snapshots
// carry diagnosis labels).
//
// analyze diagnose renders the per-layer cause-share table from a
// diagnosis-enabled run (vodsim -stream -diagnose, or a spec with
// "diagnosis": true), failing unless every session carries exactly one
// label. analyze windows renders the per-window QoE table from a
// timeline run, failing unless the windows cover every session.
//
// analyze detect-proxies runs the paper's §3 proxy-detection rules over
// a JSONL trace (vodsim -spec ... -trace): sessions whose CDN-seen HTTP
// client IP disagrees with their beacon IP, or whose IP carries more
// than -max-sessions-per-egress sessions, are flagged as proxied. The
// report grades the detector against the trace's proxypop ground truth
// (precision/recall, detected vs configured share) and prints the
// filtered-vs-unfiltered ablation — what the paper's CV(SRTT), startup
// and re-buffering quantiles would look like had proxies stayed in.
//
// analyze ingest folds snapshots into the campaign store: a directory
// argument must hold a manifest.json from sweep -out (the manifest
// drives the cell list and pins the sweep to one spec content hash —
// mixing different specs under one sweep name is refused), while a
// .json argument ingests a single loose snapshot (its "cell" label or
// file name names the cell). Ingest is idempotent and the store's
// bytes are independent of ingest order.
//
// analyze query filters the store by label (-where preset=paper),
// optionally groups by a spec axis (-group-by zipf_s), and ranks rows
// by any extracted scalar metric (-rank startup_ms_p95); -rank "" is
// an error listing the available metrics. analyze diff-sweep
// regression-diffs two ingested sweeps cell-by-cell under the default
// thresholds and exits non-zero when the candidate regresses the base.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"

	"vidperf/internal/core"
	"vidperf/internal/experiment"
	"vidperf/internal/figures"
	"vidperf/internal/logging"
	"vidperf/internal/proxydetect"
	"vidperf/internal/store"
	"vidperf/internal/telemetry"
)

func usage() {
	fmt.Fprint(os.Stderr, `usage: analyze <subcommand> [flags] [args]

subcommands:
  trace       render paper figures from a JSONL trace
  snapshot    render streaming figures from a telemetry snapshot
  compare     diff two snapshots (baseline candidate)
  diagnose    render the root-cause share report from a diagnosed snapshot
  windows     render the per-window QoE report from a timeline snapshot
  detect-proxies  run the §3 proxy-detection rules + ablation over a trace
  ingest      fold sweep directories or loose snapshots into a campaign store
  query       filter/group/rank the campaign store into a league table
  diff-sweep  regression-diff two ingested sweeps cell-by-cell

run 'analyze <subcommand> -h' for that subcommand's flags.
`)
}

// log is the command's structured logger on stderr (internal/logging):
// progress at Info, and a failure at Error before exit status 1.
var log, _ = logging.New("") // the text handler; "" is always accepted

// fatal logs a failed step with its error and exits 1.
func fatal(msg string, err error) {
	logging.Fatal(log, msg, slog.Any("err", err))
}

// badArgs reports a subcommand given the wrong arguments and exits 1.
func badArgs(usage string, args int) {
	logging.Fatal(log, "invalid arguments", slog.String("usage", usage), slog.Int("args", args))
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "trace":
		cmdTrace(args)
	case "snapshot":
		cmdSnapshot(args)
	case "compare":
		cmdCompare(args)
	case "diagnose":
		cmdDiagnose(args)
	case "windows":
		cmdWindows(args)
	case "detect-proxies":
		cmdDetectProxies(args)
	case "ingest":
		cmdIngest(args)
	case "query":
		cmdQuery(args)
	case "diff-sweep":
		cmdDiffSweep(args)
	case "help", "-h", "-help", "--help":
		usage()
	default:
		if strings.HasPrefix(cmd, "-") {
			fatal("invalid invocation", fmt.Errorf("flag-style invocation was replaced by subcommands (e.g. 'analyze snapshot %s'); run 'analyze help'", strings.TrimLeft(cmd, "-")))
		}
		fatal("invalid invocation", fmt.Errorf("unknown subcommand %q; run 'analyze help'", cmd))
	}
}

// cmdTrace renders the trace-backed figures (the original analyze
// mode).
func cmdTrace(args []string) {
	fs := flag.NewFlagSet("analyze trace", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated figure IDs to render (default all)")
	maxRank := fs.Int("max-rank", 6000, "catalog size used for Fig. 6 rank thresholds")
	filter := fs.Bool("filter-proxies", true, "apply §3 proxy preprocessing before analysis")
	fs.Parse(args)
	path := "trace.jsonl"
	switch fs.NArg() {
	case 0:
	case 1:
		path = fs.Arg(0)
	default:
		badArgs("analyze trace [flags] [trace.jsonl]", fs.NArg())
	}
	ds := loadTrace(path)
	if *filter {
		kept := proxydetect.Keep(ds, proxydetect.Detect(ds.Sessions, proxydetect.Config{}))
		log.Info("proxy filtering", slog.Int("kept", len(kept.Sessions)), slog.Int("sessions", len(ds.Sessions)),
			slog.String("kept_pct", fmt.Sprintf("%.1f", 100*float64(len(kept.Sessions))/float64(max(len(ds.Sessions), 1)))))
		ds = kept
	}
	renderFigures(figures.All(ds, *maxRank), *only)
}

// cmdSnapshot renders the sketch-backed figures from one snapshot.
func cmdSnapshot(args []string) {
	fs := flag.NewFlagSet("analyze snapshot", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated figure IDs to render (default all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		badArgs("analyze snapshot [flags] snap.json", fs.NArg())
	}
	sn := loadSnapshot(fs.Arg(0))
	log.Info("loaded snapshot", slog.Uint64("sessions", sn.Counter(telemetry.CounterSessions)),
		slog.Uint64("chunks", sn.Counter(telemetry.CounterChunks)),
		slog.Int("sketches", len(sn.Sketches)), slog.Int("k", sn.SketchK))
	renderFigures(figures.AllStreaming(sn), *only)
}

// renderFigures prints the selected figures and exits non-zero on any
// shape mismatch, exactly as the flag-based modes always did.
func renderFigures(results []figures.Result, only string) {
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToLower(id)] = true
		}
	}
	pass, fail := 0, 0
	for _, res := range results {
		if len(want) > 0 && !want[res.ID] {
			continue
		}
		fmt.Println(res.Render())
		if res.Pass {
			pass++
		} else {
			fail++
		}
	}
	if len(want) > 0 && pass+fail == 0 {
		// A filter that matches nothing must not look like success —
		// trace figures (fig05…) and snapshot figures (stream-*) live
		// in different namespaces, and a stale -only crossing them
		// would otherwise exit 0 having checked nothing.
		ids := make([]string, len(results))
		for i, res := range results {
			ids[i] = res.ID
		}
		fatal("invalid flags", fmt.Errorf("-only %q matched no figure (this mode renders: %s)", only, strings.Join(ids, ", ")))
	}
	fmt.Printf("== %d figures reproduce, %d shape mismatches ==\n", pass, fail)
	if fail > 0 {
		os.Exit(1)
	}
}

// cmdCompare diffs two snapshots (baseline first).
func cmdCompare(args []string) {
	fs := flag.NewFlagSet("analyze compare", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		badArgs("analyze compare baseline.json candidate.json", fs.NArg())
	}
	base := loadSnapshot(fs.Arg(0))
	cand := loadSnapshot(fs.Arg(1))
	log.Info("loaded snapshots",
		slog.String("baseline", fs.Arg(0)), slog.Uint64("baseline_sessions", base.Counter(telemetry.CounterSessions)),
		slog.String("candidate", fs.Arg(1)), slog.Uint64("candidate_sessions", cand.Counter(telemetry.CounterSessions)))
	fmt.Print(render(figures.StreamCompare(base, cand)))
}

// render is a report subcommand's output: the result's table and a
// closing newline. The golden tests pin these bytes.
func render(res figures.Result) string { return res.Render() + "\n" }

// cmdDiagnose renders the cause-share report. A snapshot without
// labels, or whose label counts fail to cover every session, exits
// non-zero — the coverage invariant is the report's integrity check.
func cmdDiagnose(args []string) {
	fs := flag.NewFlagSet("analyze diagnose", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		badArgs("analyze diagnose snap.json", fs.NArg())
	}
	sn := loadSnapshot(fs.Arg(0))
	log.Info("loaded snapshot", slog.Uint64("sessions", sn.Counter(telemetry.CounterSessions)),
		slog.Uint64("chunks", sn.Counter(telemetry.CounterChunks)), slog.Int("k", sn.SketchK))
	res := figures.StreamDiagnosis(sn)
	fmt.Print(render(res))
	if !res.Pass {
		os.Exit(1)
	}
}

// cmdWindows renders the per-window QoE/diagnosis report, failing
// unless the windows cover every session.
func cmdWindows(args []string) {
	fs := flag.NewFlagSet("analyze windows", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		badArgs("analyze windows snap.json", fs.NArg())
	}
	sn := loadSnapshot(fs.Arg(0))
	log.Info("loaded snapshot", slog.Uint64("sessions", sn.Counter(telemetry.CounterSessions)),
		slog.Int("windows", len(sn.Windows)), slog.Int("k", sn.SketchK))
	res := figures.StreamWindows(sn)
	fmt.Print(render(res))
	if !res.Pass {
		os.Exit(1)
	}
}

// cmdDetectProxies runs the §3 detector over a materialized trace and
// renders the detection report with its ablation, exiting non-zero when
// the trace carries ground truth and the detector misses its accuracy
// bars.
func cmdDetectProxies(args []string) {
	fs := flag.NewFlagSet("analyze detect-proxies", flag.ExitOnError)
	maxPerEgress := fs.Int("max-sessions-per-egress", proxydetect.DefaultMaxSessionsPerEgress,
		"rule-(ii) volume threshold: more sessions than this behind one IP flags it as a shared egress")
	fs.Parse(args)
	if fs.NArg() != 1 {
		badArgs("analyze detect-proxies [flags] trace.jsonl", fs.NArg())
	}
	ds := loadTrace(fs.Arg(0))
	res := figures.ProxyDetection(ds, proxydetect.Config{MaxSessionsPerEgress: *maxPerEgress})
	fmt.Print(render(res))
	if !res.Pass {
		os.Exit(1)
	}
}

// cmdIngest folds sweep directories and loose snapshots into the
// campaign store, then saves it atomically.
func cmdIngest(args []string) {
	fs := flag.NewFlagSet("analyze ingest", flag.ExitOnError)
	storePath := fs.String("store", "campaigns.json", "campaign store file (created if missing)")
	sweep := fs.String("sweep", "", "sweep name to ingest under (default: the directory manifest's spec name; required for loose snapshots)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		badArgs("analyze ingest -store campaigns.json [-sweep name] dir|snap.json ...", 0)
	}
	st, err := store.Open(*storePath)
	if err != nil {
		fatal("store open failed", err)
	}
	for _, path := range fs.Args() {
		info, err := os.Stat(path)
		if err != nil {
			fatal("ingest failed", err)
		}
		if info.IsDir() {
			name := *sweep
			if name == "" {
				m, err := experiment.ReadManifestFile(path)
				if err != nil {
					fatal("ingest failed", err)
				}
				name = m.Spec
			}
			n, err := st.IngestDir(name, path)
			if err != nil {
				fatal("ingest failed", err)
			}
			log.Info("ingested sweep directory", slog.Int("cells", n), slog.String("path", path), slog.String("sweep", name))
			continue
		}
		if *sweep == "" {
			fatal("invalid arguments", fmt.Errorf("%s: loose snapshots need -sweep (there is no manifest to name the sweep)", path))
		}
		if err := st.IngestSnapshotFile(*sweep, path); err != nil {
			fatal("ingest failed", err)
		}
		log.Info("ingested snapshot", slog.String("path", path), slog.String("sweep", *sweep))
	}
	if err := st.Save(*storePath); err != nil {
		fatal("store save failed", err)
	}
	log.Info("store saved", slog.String("path", *storePath), slog.Int("entries", st.Len()),
		slog.String("sweeps", fmt.Sprint(st.Sweeps())))
}

// cmdQuery runs a filter/group/rank query against the store and prints
// the league table (or rows as JSON with -json).
func cmdQuery(args []string) {
	fs := flag.NewFlagSet("analyze query", flag.ExitOnError)
	storePath := fs.String("store", "campaigns.json", "campaign store file")
	sweep := fs.String("sweep", "", "restrict to one sweep (default all)")
	where := fs.String("where", "", "comma-separated label filters, e.g. preset=paper,diagnosis=on")
	groupBy := fs.String("group-by", "", "aggregate by a spec axis (or any label) instead of listing cells")
	rank := fs.String("rank", "", "metric to rank by, e.g. startup_ms_p95, rebuffer_rate_p99, hit_ratio")
	desc := fs.Bool("desc", false, "rank descending (largest value first)")
	limit := fs.Int("limit", 0, "cap the number of rows (0 = all)")
	asJSON := fs.Bool("json", false, "emit rows as JSON instead of the table")
	fs.Parse(args)
	if fs.NArg() != 0 {
		badArgs("analyze query [flags]", fs.NArg())
	}
	st, err := store.Open(*storePath)
	if err != nil {
		fatal("store open failed", err)
	}
	if *rank == "" {
		fatal("invalid flags", fmt.Errorf("-rank is required; metrics in this store: %s", strings.Join(st.Metrics(*sweep), ", ")))
	}
	q := store.Query{Sweep: *sweep, GroupBy: *groupBy, Rank: *rank, Desc: *desc, Limit: *limit}
	if *where != "" {
		q.Where, err = parseWhere(*where)
		if err != nil {
			fatal("invalid flags", err)
		}
	}
	rows, err := st.Query(q)
	if err != nil {
		fatal("query failed", err)
	}
	if *asJSON {
		printJSON(rows)
		return
	}
	fmt.Print(renderQuery(q, rows))
}

// parseWhere splits "k=v,k2=v2" into a label filter map.
func parseWhere(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("-where: %q is not label=value", pair)
		}
		out[k] = v
	}
	return out, nil
}

// renderQuery is the query league table (a pure function of the query
// and rows, so goldens can pin the bytes). Values print with exact
// round-trip formatting — the table is as deterministic as the store.
func renderQuery(q store.Query, rows []store.Row) string {
	var b strings.Builder
	dir := "ascending"
	if q.Desc {
		dir = "descending"
	}
	scope := q.Sweep
	if scope == "" {
		scope = "all sweeps"
	}
	fmt.Fprintf(&b, "== query %s: rank by %s (%s) ==\n", scope, q.Rank, dir)
	if len(q.Where) > 0 {
		keys := make([]string, 0, len(q.Where))
		for k := range q.Where {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			keys[i] = k + "=" + q.Where[k]
		}
		fmt.Fprintf(&b, "where: %s\n", strings.Join(keys, ", "))
	}
	if q.GroupBy != "" {
		fmt.Fprintf(&b, "group-by: %s (mean over group)\n", q.GroupBy)
	}
	if len(rows) == 0 {
		b.WriteString("(no rows matched)\n")
		return b.String()
	}
	keyHeader := "cell"
	if q.GroupBy != "" {
		keyHeader = q.GroupBy
	}
	keyWidth := len(keyHeader)
	for _, r := range rows {
		if len(r.Key) > keyWidth {
			keyWidth = len(r.Key)
		}
	}
	fmt.Fprintf(&b, "%4s  %-*s  %3s  %s\n", "rank", keyWidth, keyHeader, "n", q.Rank)
	for i, r := range rows {
		fmt.Fprintf(&b, "%4d  %-*s  %3d  %s\n", i+1, keyWidth, r.Key, r.N, formatValue(r.Value))
	}
	return b.String()
}

// formatValue prints a metric value exactly (shortest round-trip form),
// so two runs over the same store bytes render the same table bytes.
func formatValue(v float64) string {
	return fmt.Sprintf("%g", v)
}

// cmdDiffSweep regression-diffs two ingested sweeps and exits non-zero
// when the candidate regresses the base.
func cmdDiffSweep(args []string) {
	fs := flag.NewFlagSet("analyze diff-sweep", flag.ExitOnError)
	storePath := fs.String("store", "campaigns.json", "campaign store file")
	asJSON := fs.Bool("json", false, "emit the full diff as JSON instead of the table")
	fs.Parse(args)
	if fs.NArg() != 2 {
		badArgs("analyze diff-sweep -store campaigns.json base candidate", fs.NArg())
	}
	st, err := store.Open(*storePath)
	if err != nil {
		fatal("store open failed", err)
	}
	d, err := st.CompareSweeps(fs.Arg(0), fs.Arg(1), nil)
	if err != nil {
		fatal("diff-sweep failed", err)
	}
	if *asJSON {
		printJSON(d)
	} else {
		fmt.Print(renderDiffSweep(d))
	}
	if d.Regressions > 0 {
		os.Exit(1)
	}
}

// renderDiffSweep is the diff-sweep report: one line per compared
// metric per cell, regressions flagged, missing/added cells listed.
func renderDiffSweep(d *store.SweepDiff) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== diff-sweep: %s -> %s ==\n", d.Base, d.New)
	for _, cd := range d.Cells {
		for _, md := range cd.Metrics {
			flag := "ok"
			if md.Regression {
				flag = "REGRESSION"
			}
			fmt.Fprintf(&b, "%-24s %-24s %12s -> %-12s delta %-12s %s\n",
				cd.Cell, md.Metric, formatValue(md.Base), formatValue(md.New), formatValue(md.Delta), flag)
		}
	}
	for _, name := range d.Missing {
		fmt.Fprintf(&b, "%-24s MISSING from candidate sweep (counts as a regression)\n", name)
	}
	for _, name := range d.Added {
		fmt.Fprintf(&b, "%-24s added in candidate sweep (not in base)\n", name)
	}
	fmt.Fprintf(&b, "== %d regressions ==\n", d.Regressions)
	return b.String()
}

// printJSON emits v indented, the machine-readable twin of the tables.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		fatal("write failed", err)
	}
}

// loadTrace reads a JSONL trace, exiting 1 if it cannot.
func loadTrace(path string) *core.Dataset {
	f, err := os.Open(path)
	if err != nil {
		fatal("trace load failed", err)
	}
	ds, err := core.ReadJSONL(f)
	f.Close()
	if err != nil {
		fatal("trace load failed", fmt.Errorf("%s: %w", path, err))
	}
	log.Info("loaded trace", slog.String("dataset", ds.String()))
	return ds
}

// loadSnapshot reads a telemetry snapshot, exiting 1 if it cannot.
func loadSnapshot(path string) *telemetry.Snapshot {
	f, err := os.Open(path)
	if err != nil {
		fatal("snapshot load failed", err)
	}
	defer f.Close()
	sn, err := telemetry.ReadSnapshot(f)
	if err != nil {
		fatal("snapshot load failed", fmt.Errorf("%s: %w", path, err))
	}
	return sn
}
