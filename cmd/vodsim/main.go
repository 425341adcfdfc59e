// Command vodsim runs the end-to-end video-streaming simulation and writes
// the joined instrumentation trace (player + CDN + TCP, per chunk and per
// session) to a JSONL file, plus optional CSV exports. The trace is the
// input to cmd/analyze.
//
// Usage:
//
//	vodsim -sessions 20000 -seed 1 -out trace.jsonl [-chunks-csv chunks.csv]
//	       [-sessions-csv sessions.csv] [-abr hybrid] [-cold]
//	       [-parallel 0] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	vodsim serve [...]   (continuous service mode; see below)
//
// Progress and errors go to stderr as structured logs (log/slog); pass
// -log-format=json for machine-parsable output (the default is the text
// handler).
//
// -cpuprofile and -memprofile (usable in every mode, including -spec)
// write runtime/pprof profiles of the actual campaign for go tool pprof;
// see ARCHITECTURE.md's "Performance model" for the profiling workflow.
//
// The simulation is sharded by CDN server and executed on up to -parallel engines
// at once; the written trace is byte-identical at every -parallel value.
//
// With -stream the campaign runs through the internal/telemetry subsystem
// instead: finished sessions fold into mergeable sketches, histograms and
// counters as each shard produces them, no record is ever materialized,
// and -out receives a JSON telemetry snapshot (input to
// `analyze snapshot`) rather than a JSONL trace. Peak memory is
// O(sketch), independent of the record volume, so -stream is the mode for
// 10M+-session campaigns. -stream cannot be combined with the CSV exports,
// which need the full joined dataset.
//
// The trace is the raw measurement, proxied sessions included: the §3
// preprocessing (internal/proxydetect) runs when the trace is analyzed —
// `analyze trace` applies it by default, and `analyze detect-proxies`
// grades it against the trace's ground truth.
//
// With -stream -diagnose (or -spec ... -diagnose) every finished session
// is additionally classified by internal/diagnose — which layer (server
// cache/backend, network throughput/loss, client download stack, ABR)
// dominated its problems — and the snapshot carries one session counter
// and three QoE sketches per label. `analyze diagnose` renders the
// cause-share table from them.
//
// With -spec the scenario comes from a declarative experiment spec
// (internal/experiment; see examples/specs/) instead of individual
// flags:
//
//	vodsim -spec examples/specs/paper-baseline.json -out snapshot.json
//
// The spec must expand to a single cell (multi-cell campaigns belong to
// cmd/sweep); the run always streams, writing a labelled telemetry
// snapshot. Only -out, -parallel, -seed, -sessions, -prefixes, -videos,
// -sketch-k and -diagnose may be combined with -spec, overriding the
// spec's values — the overrides the CI determinism gate uses to replay
// one spec at several -parallel settings and byte-compare the snapshots.
//
// A spec with a "timeline" block (see docs/SPECS.md) injects timed
// faults and degradations — PoP outages, backend brownouts, cache
// shrinks, path degradation, flash crowds — and the snapshot gains
// per-window telemetry: `analyze windows` renders QoE
// before/during/after each phase. Timelines change nothing about the
// determinism contract.
//
// The serve subcommand (vodsim serve, see serve.go in this package) runs
// the streaming pipeline as a long-lived service: open-ended session
// windows on a virtual clock, live /snapshot /windows /diagnose /metrics
// endpoints, and synchronous checkpoint/resume with byte-identical
// replay. See README.md, "Continuous service mode".
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"vidperf/internal/catalog"
	"vidperf/internal/core"
	"vidperf/internal/experiment"
	"vidperf/internal/logging"
	"vidperf/internal/profiling"
	"vidperf/internal/session"
	"vidperf/internal/telemetry"
	"vidperf/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}

	var (
		sessions   = flag.Int("sessions", 20000, "number of sessions to simulate")
		prefixes   = flag.Int("prefixes", 2500, "number of client /24 prefixes")
		videos     = flag.Int("videos", 6000, "catalog size (titles)")
		seed       = flag.Uint64("seed", 1, "master scenario seed")
		abrName    = flag.String("abr", "hybrid", "ABR algorithm (hybrid, rate-smoothed, rate-instant, rate-instant-screened, buffer-based, server-signal, fixed-low, fixed-high)")
		cold       = flag.Bool("cold", false, "skip CDN cache pre-warming (cold-start ablation)")
		parallel   = flag.Int("parallel", 0, "max server-slot shards simulated concurrently (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
		stream     = flag.Bool("stream", false, "streaming telemetry mode: aggregate into bounded-memory sketches and write a snapshot instead of a trace")
		diagnoseF  = flag.Bool("diagnose", false, "classify every session's dominant bottleneck (internal/diagnose) during the streamed run; requires -stream or -spec")
		spec       = flag.String("spec", "", "run a single-cell experiment spec (JSON, see examples/specs/) in streaming mode; replaces the scenario flags")
		traceOut   = flag.Bool("trace", false, "with -spec: materialize the full JSONL trace instead of a streaming snapshot (input to `analyze detect-proxies`)")
		sketchK    = flag.Int("sketch-k", telemetry.DefaultSketchK, "quantile-sketch compaction parameter in -stream mode (error bound ≈ 4/k)")
		out        = flag.String("out", "trace.jsonl", "output path (JSONL trace, or JSON snapshot with -stream)")
		chunksCSV  = flag.String("chunks-csv", "", "optional CSV export of the chunk table")
		sessCSV    = flag.String("sessions-csv", "", "optional CSV export of the session table")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on successful exit (go tool pprof)")
		logFormat  = flag.String("log-format", "text", "stderr log format: text or json")
	)
	flag.Parse()

	log, err := logging.New(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodsim:", err)
		os.Exit(1)
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *spec != "" {
		if err := validateSpecFlags(set, *sketchK, flag.Args()); err != nil {
			logging.Fatal(log, "invalid flags", slog.Any("err", err))
		}
		stopProfiles := startProfiles(log, *cpuProfile, *memProfile)
		defer stopProfiles()
		runSpec(log, *spec, set, *sessions, *prefixes, *videos, *seed, *parallel, *sketchK, *diagnoseF, *traceOut, *out)
		return
	}
	if *traceOut {
		logging.Fatal(log, "invalid flags", slog.Any("err",
			fmt.Errorf("-trace only applies to -spec runs (plain runs already write a JSONL trace)")))
	}

	if err := validateFlags(*sessions, *prefixes, *videos, *parallel, *sketchK,
		*stream, *diagnoseF, *chunksCSV, *sessCSV, flag.Args()); err != nil {
		logging.Fatal(log, "invalid flags", slog.Any("err", err))
	}
	stopProfiles := startProfiles(log, *cpuProfile, *memProfile)
	defer stopProfiles()

	sc := workload.Scenario{
		Seed:        *seed,
		NumSessions: *sessions,
		NumPrefixes: *prefixes,
		Catalog:     catalog.Config{NumVideos: *videos},
		ABRName:     *abrName,
		ColdStart:   *cold,
		Parallelism: *parallel,
	}
	log.Info("simulating",
		slog.Int("sessions", *sessions), slog.Uint64("seed", *seed),
		slog.String("abr", *abrName), slog.Bool("cold", *cold),
		slog.Int("parallel", *parallel), slog.Bool("stream", *stream),
		slog.Bool("diagnose", *diagnoseF))

	if *stream {
		runStreaming(log, sc, *sketchK, *diagnoseF, *out)
		return
	}

	res, err := session.Execute(sc, session.Options{})
	if err != nil {
		logging.Fatal(log, "run failed", slog.Any("err", err))
	}
	ds := res.Dataset
	log.Info("generated dataset", slog.String("dataset", ds.String()))

	if err := writeTrace(*out, ds); err != nil {
		logging.Fatal(log, "write failed", slog.Any("err", err))
	}
	log.Info("wrote trace", slog.String("path", *out))

	if *chunksCSV != "" {
		if err := writeFile(*chunksCSV, func(f *os.File) error {
			return core.WriteChunksCSV(f, ds.Chunks)
		}); err != nil {
			logging.Fatal(log, "write failed", slog.Any("err", err))
		}
		log.Info("wrote chunk CSV", slog.String("path", *chunksCSV))
	}
	if *sessCSV != "" {
		if err := writeFile(*sessCSV, func(f *os.File) error {
			return core.WriteSessionsCSV(f, ds.Sessions)
		}); err != nil {
			logging.Fatal(log, "write failed", slog.Any("err", err))
		}
		log.Info("wrote session CSV", slog.String("path", *sessCSV))
	}
}

// validateFlags rejects flag combinations that would otherwise silently
// misbehave, before any simulation work starts.
func validateFlags(sessions, prefixes, videos, parallel, sketchK int,
	stream, diagnose bool, chunksCSV, sessCSV string, extra []string) error {
	if len(extra) > 0 {
		return fmt.Errorf("unexpected arguments %q (all options are flags)", extra)
	}
	if sessions < 1 {
		return fmt.Errorf("-sessions must be >= 1 (got %d)", sessions)
	}
	if prefixes < 1 {
		return fmt.Errorf("-prefixes must be >= 1 (got %d)", prefixes)
	}
	if videos < 1 {
		return fmt.Errorf("-videos must be >= 1 (got %d)", videos)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (got %d); 0 means GOMAXPROCS", parallel)
	}
	if stream {
		if sketchK < 8 {
			return fmt.Errorf("-sketch-k must be >= 8 (got %d)", sketchK)
		}
		if chunksCSV != "" || sessCSV != "" {
			return fmt.Errorf("-stream keeps no per-record tables; drop -chunks-csv/-sessions-csv or run without -stream")
		}
	} else if diagnose {
		return fmt.Errorf("-diagnose classifies sessions inside the streaming aggregator; combine it with -stream (or -spec)")
	}
	return nil
}

// specOverridableFlags are the flags that may accompany -spec, each
// overriding the spec's value when explicitly set.
var specOverridableFlags = map[string]bool{
	"spec": true, "out": true, "parallel": true, "seed": true,
	"sessions": true, "prefixes": true, "videos": true, "sketch-k": true,
	"diagnose": true, "trace": true, "cpuprofile": true, "memprofile": true,
	"log-format": true,
}

// validateSpecFlags rejects flag combinations that contradict spec mode:
// the spec is the scenario, so only the override allowlist may be set,
// and overrides obey the same bounds as their -stream counterparts.
func validateSpecFlags(set map[string]bool, sketchK int, extra []string) error {
	if len(extra) > 0 {
		return fmt.Errorf("unexpected arguments %q (all options are flags)", extra)
	}
	for name := range set {
		if !specOverridableFlags[name] {
			return fmt.Errorf("-%s cannot be combined with -spec (the spec defines the scenario; only -out/-parallel/-seed/-sessions/-prefixes/-videos/-sketch-k/-diagnose override)", name)
		}
	}
	if set["sketch-k"] && sketchK < 8 {
		return fmt.Errorf("-sketch-k must be >= 8 (got %d)", sketchK)
	}
	return nil
}

// runSpec executes a single-cell experiment spec in streaming mode,
// applying any explicitly-set override flags, and writes the labelled
// snapshot to out. An explicit -diagnose / -diagnose=false overrides
// the spec's diagnosis toggle in either direction, like every other
// override flag (it is an output toggle, so the simulated world — and
// every non-diagnosis byte of the snapshot state — is unchanged). With
// -trace the same cell instead materializes the full joined dataset and
// out receives the JSONL trace — the input `analyze detect-proxies`
// needs, since the §3 detector reads per-session records, not sketches.
func runSpec(log *slog.Logger, path string, set map[string]bool, sessions, prefixes, videos int,
	seed uint64, parallel, sketchK int, diagnose, trace bool, out string) {
	sp, err := experiment.LoadFile(path)
	if err != nil {
		logging.Fatal(log, "spec load failed", slog.Any("err", err))
	}
	cells, err := sp.Expand()
	if err != nil {
		logging.Fatal(log, "spec expansion failed", slog.Any("err", err))
	}
	if len(cells) != 1 {
		logging.Fatal(log, "multi-cell spec",
			slog.String("spec", path), slog.Int("cells", len(cells)),
			slog.String("hint", "vodsim -spec runs single-cell specs (use cmd/sweep for campaigns)"))
	}
	cell := cells[0]
	if set["sessions"] {
		cell.Scenario.NumSessions = sessions
	}
	if set["prefixes"] {
		cell.Scenario.NumPrefixes = prefixes
	}
	if set["videos"] {
		cell.Scenario.Catalog.NumVideos = videos
	}
	if set["seed"] {
		cell.Scenario.Seed = seed
	}
	if set["parallel"] {
		cell.Scenario.Parallelism = parallel
	}
	if set["sketch-k"] {
		sp.SketchK = sketchK
	}
	if set["diagnose"] {
		sp.Diagnosis = diagnose
	}
	sc := cell.Scenario.WithDefaults()
	log.Info("running spec cell",
		slog.String("spec", sp.Name), slog.String("cell", cell.Name),
		slog.Int("sessions", sc.NumSessions), slog.Uint64("seed", sc.Seed),
		slog.String("abr", sc.ABRName), slog.Int("parallel", cell.Scenario.Parallelism),
		slog.Bool("trace", trace))
	if trace {
		res, err := session.Execute(cell.Scenario, session.Options{})
		if err != nil {
			logging.Fatal(log, "cell run failed", slog.Any("err", err))
		}
		log.Info("generated dataset", slog.String("dataset", res.Dataset.String()))
		if err := writeTrace(out, res.Dataset); err != nil {
			logging.Fatal(log, "write failed", slog.Any("err", err))
		}
		log.Info("wrote trace", slog.String("path", out))
		return
	}
	res, err := experiment.RunCell(sp, cell, "")
	if err != nil {
		logging.Fatal(log, "cell run failed", slog.Any("err", err))
	}
	writeSnapshotFile(log, out, res.Snapshot)
}

// runStreaming executes the campaign through per-shard telemetry
// accumulators and writes the merged snapshot.
func runStreaming(log *slog.Logger, sc workload.Scenario, sketchK int, diag bool, out string) {
	res, err := session.Execute(sc, session.Options{Telemetry: true, SketchK: sketchK, Diagnose: diag})
	if err != nil {
		logging.Fatal(log, "streaming run failed", slog.Any("err", err))
	}
	writeSnapshotFile(log, out, res.Snapshot)
}

// writeSnapshotFile logs the snapshot's totals and writes it to out.
func writeSnapshotFile(log *slog.Logger, out string, sn *telemetry.Snapshot) {
	log.Info("streamed campaign",
		slog.Uint64("sessions", sn.Counter(telemetry.CounterSessions)),
		slog.Uint64("chunks", sn.Counter(telemetry.CounterChunks)),
		slog.Int("sketches", len(sn.Sketches)), slog.Int("sketch_k", sn.SketchK))
	if err := writeFile(out, func(f *os.File) error {
		return telemetry.WriteSnapshot(f, sn)
	}); err != nil {
		logging.Fatal(log, "write failed", slog.Any("err", err))
	}
	log.Info("wrote snapshot", slog.String("path", out))
}

// startProfiles wires the -cpuprofile/-memprofile flags. The returned
// stop runs on main's normal exit; fatal error paths (os.Exit) skip it,
// which is fine — a run that died produced no profile worth keeping.
func startProfiles(log *slog.Logger, cpuPath, memPath string) func() {
	stop, err := profiling.Start(cpuPath, memPath)
	if err != nil {
		logging.Fatal(log, "profiling setup failed", slog.Any("err", err))
	}
	return func() {
		if err := stop(); err != nil {
			log.Error("profiling stop failed", slog.Any("err", err))
		}
	}
}

func writeTrace(path string, ds *core.Dataset) error {
	return writeFile(path, func(f *os.File) error { return core.WriteJSONL(f, ds) })
}

// writeFile writes path through fn without ever leaving it half written:
// fn writes a temporary file in the same directory, which replaces path
// only once fn, Sync and Close have all succeeded. On any failure the
// temporary file is removed and path keeps its previous contents. An
// existing file keeps its mode, a new one gets 0644, and a symlink is
// written through to its target. A target that is not a regular file,
// such as a pipe or /dev/null, is written in place: renaming over it
// would replace it.
func writeFile(path string, fn func(*os.File) error) (err error) {
	if target, err := filepath.EvalSymlinks(path); err == nil {
		path = target
	}
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		if !fi.Mode().IsRegular() {
			return writeInPlace(path, fn)
		}
		mode = fi.Mode().Perm()
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err := fn(f); err != nil {
		return err
	}
	if err := f.Chmod(mode); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// writeInPlace writes fn's output straight into path, an existing file
// that is not a regular one.
func writeInPlace(path string, fn func(*os.File) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
