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
// instead: finished sessions fold into mergeable sketches and counters
// as each shard produces them, no record is ever materialized, and -out
// receives a JSON telemetry snapshot (input to
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
// (internal/experiment; see examples/specs/) and the run writes a
// labelled telemetry snapshot, or with -trace the JSONL trace:
//
//	vodsim -spec examples/specs/paper-baseline.json -out snapshot.json
//
// The spec must expand to a single cell (multi-cell campaigns belong to
// cmd/sweep). There is one override rule, shared with vodsim serve and
// cmd/sweep: each flag that configures the run (-seed, -sessions,
// -prefixes, -videos, -abr, -cold, -parallel, -sketch-k, -diagnose) is
// a row of internal/experiment's flag table, which names the spec key
// it sets; a flag the user sets replaces that key, and the result is
// validated like a spec file. Without -spec the run starts from an
// empty spec and every flag applies, defaults included. The CI
// determinism gate uses the overrides to replay one spec at several
// -parallel settings and byte-compare the snapshots.
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

	"vidperf/internal/atomicfile"
	"vidperf/internal/core"
	"vidperf/internal/experiment"
	"vidperf/internal/logging"
	"vidperf/internal/profiling"
	"vidperf/internal/session"
	"vidperf/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	fs, f := parseFlags(os.Args[1:])
	log, err := logging.New(f.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodsim:", err)
		os.Exit(1)
	}
	sp, cell, err := configure(fs, f)
	if err != nil {
		logging.Fatal(log, "invalid run", slog.Any("err", err))
	}
	stopProfiles := startProfiles(log, f.cpuProfile, f.memProfile)
	defer stopProfiles()
	if err := run(log, f, sp, cell); err != nil {
		logging.Fatal(log, "run failed", slog.Any("err", err))
	}
}

// batchFlags holds vodsim's output and mode flags. The flags that
// configure the spec (the scenario flags, -sketch-k and -diagnose) are
// read back from the flag set by specFromFlags.
type batchFlags struct {
	spec, out, chunksCSV, sessCSV string
	cpuProfile, memProfile        string
	logFormat                     string
	stream, trace, diagnose       bool
}

// parseFlags parses vodsim's command line.
func parseFlags(args []string) (*flag.FlagSet, *batchFlags) {
	fs := flag.NewFlagSet("vodsim", flag.ExitOnError)
	var f batchFlags
	fs.Int("sessions", 20000, "number of sessions to simulate")
	fs.Int("prefixes", 2500, "number of client /24 prefixes")
	fs.Int("videos", 6000, "catalog size (titles)")
	fs.Uint64("seed", 1, "master scenario seed")
	fs.String("abr", "hybrid", "ABR algorithm (hybrid, rate-smoothed, rate-instant, rate-instant-screened, rate-smoothed-screened, buffer-based, server-signal, fixed-low, fixed-high)")
	fs.Bool("cold", false, "skip CDN cache pre-warming (cold-start ablation)")
	fs.Int("parallel", 0, "max server-slot shards simulated concurrently (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
	fs.BoolVar(&f.stream, "stream", false, "streaming telemetry mode: aggregate into bounded-memory sketches and write a snapshot instead of a trace (what -spec runs always do)")
	fs.BoolVar(&f.diagnose, "diagnose", false, "classify every session's dominant bottleneck (internal/diagnose) into the snapshot; needs snapshot output (-stream, or -spec without -trace)")
	fs.StringVar(&f.spec, "spec", "", "single-cell experiment spec (JSON, see examples/specs/); scenario flags override its keys")
	fs.BoolVar(&f.trace, "trace", false, "with -spec: write the full JSONL trace instead of a snapshot (input to `analyze detect-proxies`)")
	fs.Int("sketch-k", telemetry.DefaultSketchK, "quantile-sketch compaction parameter for snapshots (error bound ≈ 4/k); sets the spec's sketch_k")
	fs.StringVar(&f.out, "out", "trace.jsonl", "output path (JSONL trace, or JSON snapshot)")
	fs.StringVar(&f.chunksCSV, "chunks-csv", "", "optional CSV export of the chunk table (trace output only)")
	fs.StringVar(&f.sessCSV, "sessions-csv", "", "optional CSV export of the session table (trace output only)")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&f.memProfile, "memprofile", "", "write an allocation profile to this file on successful exit (go tool pprof)")
	fs.StringVar(&f.logFormat, "log-format", "text", "stderr log format: text or json")
	fs.Parse(args)
	return fs, &f
}

// snapshot reports whether the run writes a telemetry snapshot rather
// than a JSONL trace: -stream runs and -spec runs without -trace do.
func (f *batchFlags) snapshot() bool { return f.stream || f.spec != "" && !f.trace }

// configure checks the flags that pick the output, then builds the
// run's spec and its one cell from the scenario flags.
func configure(fs *flag.FlagSet, f *batchFlags) (*experiment.Spec, experiment.Cell, error) {
	switch {
	case fs.NArg() > 0:
		return nil, experiment.Cell{}, fmt.Errorf("unexpected arguments %q (all options are flags)", fs.Args())
	case f.stream && f.trace:
		return nil, experiment.Cell{}, fmt.Errorf("-stream writes a snapshot and -trace a JSONL trace; pick one")
	case f.snapshot() && (f.chunksCSV != "" || f.sessCSV != ""):
		return nil, experiment.Cell{}, fmt.Errorf("-chunks-csv/-sessions-csv export the trace's tables; a snapshot keeps none (drop -stream, or add -trace with -spec)")
	case !f.snapshot() && f.diagnose:
		return nil, experiment.Cell{}, fmt.Errorf("-diagnose classifies sessions into the snapshot; combine it with -stream (or -spec without -trace)")
	}
	return specFromFlags(fs, f.spec)
}

// specFromFlags is the one way vodsim and vodsim serve build a run: the
// -spec file, or an empty spec when there is none, overridden by the
// flags the experiment package's flag table maps to spec keys (every one
// of them without a spec file, else those the user set). The result
// must validate and expand to one cell.
func specFromFlags(fs *flag.FlagSet, path string) (*experiment.Spec, experiment.Cell, error) {
	sp, visit := &experiment.Spec{Name: "flags"}, fs.VisitAll
	if path != "" {
		var err error
		if sp, err = experiment.LoadFile(path); err != nil {
			return nil, experiment.Cell{}, err
		}
		visit = fs.Visit
	}
	if err := sp.OverrideFlags(visit); err != nil {
		return nil, experiment.Cell{}, err
	}
	if err := sp.Validate(); err != nil {
		return nil, experiment.Cell{}, err
	}
	cells, err := sp.Expand()
	if err != nil {
		return nil, experiment.Cell{}, err
	}
	if len(cells) != 1 {
		return nil, experiment.Cell{}, fmt.Errorf("spec %s expands to %d cells; vodsim runs single-cell specs (use cmd/sweep for campaigns)", sp.Name, len(cells))
	}
	return sp, cells[0], nil
}

// run simulates the cell and writes its snapshot or trace (plus the CSV
// exports) to the output paths.
func run(log *slog.Logger, f *batchFlags, sp *experiment.Spec, cell experiment.Cell) error {
	sc := cell.Scenario.WithDefaults()
	log.Info("simulating",
		slog.String("spec", sp.Name), slog.String("cell", cell.Name),
		slog.Int("sessions", sc.NumSessions), slog.Uint64("seed", sc.Seed),
		slog.String("abr", sc.ABRName), slog.Bool("cold", sc.ColdStart),
		slog.Int("parallel", sc.Parallelism), slog.Bool("snapshot", f.snapshot()),
		slog.Bool("diagnose", sp.Diagnosis))
	if f.snapshot() {
		res, err := experiment.RunCell(sp, cell, "")
		if err != nil {
			return err
		}
		if f.spec == "" {
			// A flag-only run is no campaign cell: its snapshot carries
			// no spec labels, like a one-window serve run's.
			res.Snapshot.Labels = nil
		}
		return writeSnapshotFile(log, f.out, res.Snapshot)
	}
	res, err := session.Execute(cell.Scenario, session.Options{})
	if err != nil {
		return err
	}
	ds := res.Dataset
	log.Info("generated dataset", slog.String("dataset", ds.String()))
	if err := writeTrace(f.out, ds); err != nil {
		return err
	}
	log.Info("wrote trace", slog.String("path", f.out))
	if f.chunksCSV != "" {
		if err := atomicfile.Write(f.chunksCSV, func(file *os.File) error {
			return core.WriteChunksCSV(file, ds.Chunks)
		}); err != nil {
			return err
		}
		log.Info("wrote chunk CSV", slog.String("path", f.chunksCSV))
	}
	if f.sessCSV != "" {
		if err := atomicfile.Write(f.sessCSV, func(file *os.File) error {
			return core.WriteSessionsCSV(file, ds.Sessions)
		}); err != nil {
			return err
		}
		log.Info("wrote session CSV", slog.String("path", f.sessCSV))
	}
	return nil
}

// writeSnapshotFile logs the snapshot's totals and writes it to out.
func writeSnapshotFile(log *slog.Logger, out string, sn *telemetry.Snapshot) error {
	log.Info("streamed campaign",
		slog.Uint64("sessions", sn.Counter(telemetry.CounterSessions)),
		slog.Uint64("chunks", sn.Counter(telemetry.CounterChunks)),
		slog.Int("sketches", len(sn.Sketches)), slog.Int("sketch_k", sn.SketchK))
	if err := atomicfile.Write(out, func(f *os.File) error {
		return telemetry.WriteSnapshot(f, sn)
	}); err != nil {
		return err
	}
	log.Info("wrote snapshot", slog.String("path", out))
	return nil
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
	return atomicfile.Write(path, func(f *os.File) error { return core.WriteJSONL(f, ds) })
}
