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
// The spec follows vodsim's one override rule: each flag the user sets
// among -seed, -prefixes, -videos, -abr, -cold, -parallel, -sketch-k,
// -diagnose and the serve knobs -sessions-per-window, -window-min,
// -ring, -pace and -checkpoint-every replaces the spec key the
// experiment package's flag table maps it to (serve.window_min for
// -window-min); without -spec every one of them applies. A serve key
// left unset takes the engine default (for window_min, the scenario's
// arrival window; for sessions_per_window, its session count), and
// serve.Config.Validate is the one range check of the serve knobs. With
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

	"vidperf/internal/atomicfile"
	"vidperf/internal/logging"
	"vidperf/internal/serve"
	"vidperf/internal/telemetry"
)

// serveFlags carries the parsed serve flag values through validation and
// engine construction. The flags that configure the spec (the scenario
// flags, -sketch-k, -diagnose and the serve knobs) are read back from
// the flag set by specFromFlags; -parallel, -pace and -checkpoint-every
// are also kept here for -resume, which takes no spec.
type serveFlags struct {
	spec   string
	resume string

	parallel        int
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
	fs.Int("sessions-per-window", 2000, "sessions generated per service window")
	fs.Int("prefixes", 2500, "number of client /24 prefixes")
	fs.Int("videos", 6000, "catalog size (titles)")
	fs.IntVar(&f.parallel, "parallel", 0, "max server-slot shards simulated concurrently (0 = GOMAXPROCS; output is identical at any setting)")
	fs.Int("sketch-k", telemetry.DefaultSketchK, "quantile-sketch compaction parameter (error bound ≈ 4/k); sets the spec's sketch_k")
	fs.Bool("diagnose", false, "classify every session's dominant bottleneck, enabling /diagnose")
	fs.Float64("window-min", 30, "virtual length of one service window, in minutes")
	fs.Int("ring", 12, "closed windows retained for /windows")
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
		if err := atomicfile.Write(f.out, func(file *os.File) error { return eng.WriteSnapshot(file) }); err != nil {
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
// mode (fresh or resume) before any engine work starts. Values are
// checked where they land: the spec's keys by Spec.Validate when
// specFromFlags builds the spec, the serve knobs by serve.Config.Validate.
func validateServeFlags(fs *flag.FlagSet, f serveFlags) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (all options are flags)", fs.Args())
	}
	var err error
	fs.Visit(func(fl *flag.Flag) {
		if err == nil && f.resume != "" && !serveRuntimeFlags[fl.Name] {
			err = fmt.Errorf("-%s cannot be combined with -resume (the checkpoint defines the run; only runtime flags -listen/-pace/-checkpoint/-checkpoint-every/-max-windows/-out/-parallel/-log-format apply)", fl.Name)
		}
	})
	switch {
	case err != nil:
		return err
	case f.resume != "" && f.parallel < 0:
		// Without -resume, -parallel is a scenario override and
		// Scenario.Validate checks it.
		return fmt.Errorf("-parallel must be >= 0 (got %d); 0 keeps the checkpoint's", f.parallel)
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
	cfg := sp.ServeConfig(cell)
	cfg.CheckpointPath = f.checkpoint
	cfg.MaxWindows = f.maxWindows
	return serve.NewEngine(cfg, log)
}
