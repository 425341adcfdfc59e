// serve.go implements `vodsim serve`: continuous service mode. The
// subcommand builds an internal/serve engine — from scenario flags, from
// an experiment spec's scenario + "serve" block, or from a checkpoint
// (-resume) — exposes its live state over HTTP, and runs service windows
// until SIGTERM/interrupt or -max-windows.
//
//	vodsim serve -seed 7 -sessions-per-window 2000 -window-min 30 \
//	       -pace 60 -listen 127.0.0.1:9632 -checkpoint state.ckpt
//	vodsim serve -spec examples/specs/serve-steady.json
//	vodsim serve -resume state.ckpt -max-windows 48 -out snapshot.json
//
// The scenario follows vodsim's one override rule: every scenario flag
// the user sets (-seed, -prefixes, -videos, -abr, -cold, -parallel)
// overrides the spec key of the same name, -sketch-k sets sketch_k and
// -diagnose sets diagnosis; without -spec every scenario flag applies.
// Likewise an explicitly-set serve flag beats the spec's serve block,
// which beats the engine default (for -window-min, the scenario's
// arrival window; for -sessions-per-window, its session count). With
// -resume, every determinism-relevant setting comes from the checkpoint
// and only runtime flags (-listen, -pace, -checkpoint,
// -checkpoint-every, -max-windows, -out, -parallel, -log-format) may be
// set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vidperf/internal/experiment"
	"vidperf/internal/logging"
	"vidperf/internal/serve"
	"vidperf/internal/telemetry"
)

// serveFlags carries the parsed serve flag values through validation and
// engine construction. The scenario flags, -sketch-k and -diagnose are
// read back from the flag set by specFromFlags.
type serveFlags struct {
	spec   string
	resume string

	sessionsPerWindow int
	parallel          int

	windowMin       float64
	ring            int
	pace            float64
	listen          string
	checkpoint      string
	checkpointEvery int
	maxWindows      int
	out             string
	logFormat       string
}

// parseServeFlags parses the serve subcommand's command line.
func parseServeFlags(args []string) (*flag.FlagSet, serveFlags) {
	fs := flag.NewFlagSet("vodsim serve", flag.ExitOnError)
	var f serveFlags
	fs.StringVar(&f.spec, "spec", "", "single-cell experiment spec (JSON) providing the scenario and optional serve block; scenario flags override its keys")
	fs.StringVar(&f.resume, "resume", "", "resume from this checkpoint file instead of starting fresh")
	fs.Uint64("seed", 1, "serve seed (window w runs at serve.WindowSeed(seed, w))")
	fs.String("abr", "hybrid", "ABR algorithm for every window")
	fs.Bool("cold", false, "skip CDN cache pre-warming in every window")
	fs.IntVar(&f.sessionsPerWindow, "sessions-per-window", 2000, "sessions generated per service window")
	fs.Int("prefixes", 2500, "number of client /24 prefixes")
	fs.Int("videos", 6000, "catalog size (titles)")
	fs.IntVar(&f.parallel, "parallel", 0, "max server-slot shards simulated concurrently (0 = GOMAXPROCS; output is identical at any setting)")
	fs.Int("sketch-k", telemetry.DefaultSketchK, "quantile-sketch compaction parameter (error bound ≈ 4/k); sets the spec's sketch_k")
	fs.Bool("diagnose", false, "classify every session's dominant bottleneck, enabling /diagnose")
	fs.Float64Var(&f.windowMin, "window-min", 30, "virtual length of one service window, in minutes")
	fs.IntVar(&f.ring, "ring", 12, "closed windows retained for /windows")
	fs.Float64Var(&f.pace, "pace", 0, "virtual-to-wall speed factor (60 plays a 30-minute window in 30s wall; 0 = max speed)")
	fs.StringVar(&f.listen, "listen", "127.0.0.1:9632", "HTTP listen address for /snapshot /windows /diagnose /metrics /status /checkpoint (empty disables HTTP)")
	fs.StringVar(&f.checkpoint, "checkpoint", "", "checkpoint file path (written on POST /checkpoint, every -checkpoint-every windows, and at shutdown)")
	fs.IntVar(&f.checkpointEvery, "checkpoint-every", 0, "write a checkpoint after every n-th closed window (0 = only on demand and at shutdown)")
	fs.IntVar(&f.maxWindows, "max-windows", 0, "stop after this many total closed windows (0 = run until signalled)")
	fs.StringVar(&f.out, "out", "", "write the final cumulative snapshot (JSON) here on exit")
	fs.StringVar(&f.logFormat, "log-format", "text", "stderr log format: text or json")
	fs.Parse(args)
	return fs, f
}

func serveMain(args []string) {
	fs, f := parseServeFlags(args)
	log, err := logging.New(f.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodsim serve:", err)
		os.Exit(1)
	}
	if err := validateServeFlags(fs, f); err != nil {
		logging.Fatal(log, "invalid flags", slog.Any("err", err))
	}

	eng, err := buildServeEngine(fs, f, log)
	if err != nil {
		logging.Fatal(log, "serve setup failed", slog.Any("err", err))
	}
	cfg := eng.Config()
	log.Info("serving",
		slog.Uint64("seed", cfg.Scenario.Seed),
		slog.Int("sessions_per_window", cfg.SessionsPerWindow),
		slog.Float64("window_ms", cfg.WindowMS),
		slog.Float64("pace", cfg.Pace),
		slog.Int("windows_done", eng.WindowsDone()),
		slog.Int("max_windows", cfg.MaxWindows),
		slog.Bool("diagnose", cfg.Diagnose))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var srv *http.Server
	if f.listen != "" {
		ln, err := net.Listen("tcp", f.listen)
		if err != nil {
			logging.Fatal(log, "listen failed", slog.Any("err", err))
		}
		srv = &http.Server{Handler: eng.Handler()}
		log.Info("http listening", slog.String("addr", ln.Addr().String()))
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("http server failed", slog.Any("err", err))
			}
		}()
	}

	runErr := eng.Run(ctx)
	stop()
	if srv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(shutCtx)
		cancel()
	}
	if runErr != nil {
		logging.Fatal(log, "serve run failed", slog.Any("err", runErr))
	}
	log.Info("serve stopped",
		slog.Int("windows_done", eng.WindowsDone()),
		slog.Float64("virtual_ms", eng.VirtualMS()))

	if f.out != "" {
		if err := writeFile(f.out, func(file *os.File) error { return eng.WriteSnapshot(file) }); err != nil {
			logging.Fatal(log, "write failed", slog.Any("err", err))
		}
		log.Info("wrote snapshot", slog.String("path", f.out))
	}
}

// serveRuntimeFlags are the flags that may accompany -resume: they
// schedule and persist work but never feed the simulation.
var serveRuntimeFlags = map[string]bool{
	"resume": true, "listen": true, "pace": true, "checkpoint": true,
	"checkpoint-every": true, "max-windows": true, "out": true,
	"parallel": true, "log-format": true,
}

// validateServeFlags rejects serve flag combinations that contradict the
// mode (fresh or resume) and serve knobs out of range before any engine
// work starts; the scenario is checked when specFromFlags builds it.
func validateServeFlags(fs *flag.FlagSet, f serveFlags) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (all options are flags)", fs.Args())
	}
	for name := range setFlags(fs) {
		if f.resume != "" && !serveRuntimeFlags[name] {
			return fmt.Errorf("-%s cannot be combined with -resume (the checkpoint defines the run; only runtime flags -listen/-pace/-checkpoint/-checkpoint-every/-max-windows/-out/-parallel/-log-format apply)", name)
		}
	}
	switch {
	case f.resume != "" && f.parallel < 0:
		// Without -resume, -parallel is a scenario override and
		// Scenario.Validate checks it.
		return fmt.Errorf("-parallel must be >= 0 (got %d); 0 keeps the checkpoint's", f.parallel)
	case f.sessionsPerWindow < 1:
		return fmt.Errorf("-sessions-per-window must be >= 1 (got %d)", f.sessionsPerWindow)
	case f.windowMin <= 0:
		return fmt.Errorf("-window-min must be > 0 (got %g)", f.windowMin)
	case f.ring < 1:
		return fmt.Errorf("-ring must be >= 1 (got %d)", f.ring)
	case f.pace < 0:
		return fmt.Errorf("-pace must be >= 0 (got %g); 0 means max speed", f.pace)
	case f.checkpointEvery < 0:
		return fmt.Errorf("-checkpoint-every must be >= 0 (got %d)", f.checkpointEvery)
	case f.maxWindows < 0:
		return fmt.Errorf("-max-windows must be >= 0 (got %d)", f.maxWindows)
	case f.checkpointEvery > 0 && f.checkpoint == "" && f.resume == "":
		return fmt.Errorf("-checkpoint-every needs -checkpoint (nowhere to write)")
	}
	return nil
}

// buildServeEngine constructs the engine for the selected mode: resumed
// from a checkpoint, or configured by a spec (or flags alone) with set
// flags overriding it.
func buildServeEngine(fs *flag.FlagSet, f serveFlags, log *slog.Logger) (*serve.Engine, error) {
	if f.resume != "" {
		ck, err := serve.LoadCheckpoint(f.resume)
		if err != nil {
			return nil, err
		}
		ckptPath := f.checkpoint
		if ckptPath == "" {
			// Resuming without -checkpoint keeps checkpointing to the file
			// being resumed — the natural reading of "pick up where the
			// service left off".
			ckptPath = f.resume
		}
		return serve.ResumeEngine(ck, serve.Runtime{
			Pace:                   f.pace,
			CheckpointPath:         ckptPath,
			CheckpointEveryWindows: f.checkpointEvery,
			MaxWindows:             f.maxWindows,
			Parallelism:            f.parallel,
		}, log)
	}

	sp, cell, err := specFromFlags(fs, f.spec)
	if err != nil {
		return nil, err
	}
	// A serve flag the user set beats the spec's serve block, and a
	// block field left at zero takes the engine default. Without a spec,
	// the flag's default stands in for the block.
	set := setFlags(fs)
	var sv experiment.ServeSpec
	if sp.Serve != nil {
		sv = *sp.Serve
	}
	cfg := serve.Config{
		Scenario:               cell.Scenario,
		SketchK:                sp.EffectiveSketchK(),
		Diagnose:               sp.Diagnosis,
		SessionsPerWindow:      sv.SessionsPerWindow,
		WindowMS:               sv.WindowMS(),
		Ring:                   sv.Ring,
		Pace:                   sv.Pace,
		CheckpointPath:         f.checkpoint,
		CheckpointEveryWindows: sv.CheckpointEveryWindows,
		MaxWindows:             f.maxWindows,
	}
	if set["sessions-per-window"] || f.spec == "" {
		cfg.SessionsPerWindow = f.sessionsPerWindow
	}
	if set["window-min"] {
		cfg.WindowMS = f.windowMin * 60 * 1000
	}
	if set["ring"] {
		cfg.Ring = f.ring
	}
	if set["pace"] {
		cfg.Pace = f.pace
	}
	if set["checkpoint-every"] {
		cfg.CheckpointEveryWindows = f.checkpointEvery
	}
	return serve.NewEngine(cfg, log)
}
