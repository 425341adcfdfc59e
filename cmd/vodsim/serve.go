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
// Flag precedence in spec mode: an explicitly-set flag beats the spec's
// serve block, which beats the flag's default (for -window-min, the
// scenario's arrival window). With -resume, every
// determinism-relevant setting comes from the checkpoint and only
// runtime flags (-listen, -pace, -checkpoint, -checkpoint-every,
// -max-windows, -out, -parallel, -log-format) may be set.
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

	"vidperf/internal/catalog"
	"vidperf/internal/experiment"
	"vidperf/internal/logging"
	"vidperf/internal/serve"
	"vidperf/internal/telemetry"
	"vidperf/internal/workload"
)

// serveFlags carries the parsed serve flag values through validation and
// engine construction.
type serveFlags struct {
	spec    string
	resume  string
	seed    uint64
	abrName string
	cold    bool

	sessionsPerWindow int
	prefixes          int
	videos            int
	parallel          int
	sketchK           int
	diagnose          bool

	windowMin       float64
	ring            int
	pace            float64
	listen          string
	checkpoint      string
	checkpointEvery int
	maxWindows      int
	out             string
}

func serveMain(args []string) {
	fs := flag.NewFlagSet("vodsim serve", flag.ExitOnError)
	var f serveFlags
	fs.StringVar(&f.spec, "spec", "", "single-cell experiment spec (JSON) providing the scenario and optional serve block")
	fs.StringVar(&f.resume, "resume", "", "resume from this checkpoint file instead of starting fresh")
	fs.Uint64Var(&f.seed, "seed", 1, "serve seed (window w runs at serve.WindowSeed(seed, w))")
	fs.StringVar(&f.abrName, "abr", "hybrid", "ABR algorithm for every window")
	fs.BoolVar(&f.cold, "cold", false, "skip CDN cache pre-warming in every window")
	fs.IntVar(&f.sessionsPerWindow, "sessions-per-window", 2000, "sessions generated per service window")
	fs.IntVar(&f.prefixes, "prefixes", 2500, "number of client /24 prefixes")
	fs.IntVar(&f.videos, "videos", 6000, "catalog size (titles)")
	fs.IntVar(&f.parallel, "parallel", 0, "max server-slot shards simulated concurrently (0 = GOMAXPROCS; output is identical at any setting)")
	fs.IntVar(&f.sketchK, "sketch-k", telemetry.DefaultSketchK, "quantile-sketch compaction parameter (error bound ≈ 4/k)")
	fs.BoolVar(&f.diagnose, "diagnose", false, "classify every session's dominant bottleneck, enabling /diagnose")
	fs.Float64Var(&f.windowMin, "window-min", 30, "virtual length of one service window, in minutes")
	fs.IntVar(&f.ring, "ring", 12, "closed windows retained for /windows")
	fs.Float64Var(&f.pace, "pace", 0, "virtual-to-wall speed factor (60 plays a 30-minute window in 30s wall; 0 = max speed)")
	fs.StringVar(&f.listen, "listen", "127.0.0.1:9632", "HTTP listen address for /snapshot /windows /diagnose /metrics /status /checkpoint (empty disables HTTP)")
	fs.StringVar(&f.checkpoint, "checkpoint", "", "checkpoint file path (written on POST /checkpoint, every -checkpoint-every windows, and at shutdown)")
	fs.IntVar(&f.checkpointEvery, "checkpoint-every", 0, "write a checkpoint after every n-th closed window (0 = only on demand and at shutdown)")
	fs.IntVar(&f.maxWindows, "max-windows", 0, "stop after this many total closed windows (0 = run until signalled)")
	fs.StringVar(&f.out, "out", "", "write the final cumulative snapshot (JSON) here on exit")
	logFormat := fs.String("log-format", "text", "stderr log format: text or json")
	fs.Parse(args)

	log, err := logging.New(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vodsim serve:", err)
		os.Exit(1)
	}
	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })

	if err := validateServeFlags(set, f, fs.Args()); err != nil {
		logging.Fatal(log, "invalid flags", slog.Any("err", err))
	}

	eng, err := buildServeEngine(set, f, log)
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

// serveSpecBlockedFlags are the flags a spec-driven serve run may not
// set: the spec owns the simulated world, and a checkpoint resume owns
// everything.
var serveSpecBlockedFlags = map[string]bool{
	"abr": true, "cold": true, "seed": true, "resume": true,
}

// validateServeFlags rejects serve flag combinations that contradict the
// mode (fresh, spec, resume) before any engine work starts.
func validateServeFlags(set map[string]bool, f serveFlags, extra []string) error {
	if len(extra) > 0 {
		return fmt.Errorf("unexpected arguments %q (all options are flags)", extra)
	}
	if f.resume != "" {
		for name := range set {
			if !serveRuntimeFlags[name] {
				return fmt.Errorf("-%s cannot be combined with -resume (the checkpoint defines the run; only runtime flags -listen/-pace/-checkpoint/-checkpoint-every/-max-windows/-out/-parallel/-log-format apply)", name)
			}
		}
	} else if f.spec != "" {
		for name := range set {
			if serveSpecBlockedFlags[name] {
				return fmt.Errorf("-%s cannot be combined with -spec in serve mode (the spec defines the scenario)", name)
			}
		}
	}
	if f.sessionsPerWindow < 1 {
		return fmt.Errorf("-sessions-per-window must be >= 1 (got %d)", f.sessionsPerWindow)
	}
	if f.prefixes < 1 {
		return fmt.Errorf("-prefixes must be >= 1 (got %d)", f.prefixes)
	}
	if f.videos < 1 {
		return fmt.Errorf("-videos must be >= 1 (got %d)", f.videos)
	}
	if f.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (got %d); 0 means GOMAXPROCS", f.parallel)
	}
	if f.sketchK < 8 {
		return fmt.Errorf("-sketch-k must be >= 8 (got %d)", f.sketchK)
	}
	if f.windowMin <= 0 {
		return fmt.Errorf("-window-min must be > 0 (got %g)", f.windowMin)
	}
	if f.ring < 1 {
		return fmt.Errorf("-ring must be >= 1 (got %d)", f.ring)
	}
	if f.pace < 0 {
		return fmt.Errorf("-pace must be >= 0 (got %g); 0 means max speed", f.pace)
	}
	if f.checkpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0 (got %d)", f.checkpointEvery)
	}
	if f.maxWindows < 0 {
		return fmt.Errorf("-max-windows must be >= 0 (got %d)", f.maxWindows)
	}
	if f.checkpointEvery > 0 && f.checkpoint == "" && f.resume == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint (nowhere to write)")
	}
	return nil
}

// buildServeEngine constructs the engine for the selected mode: resumed
// from a checkpoint, configured by a spec (flags overriding its serve
// block), or configured by flags alone.
func buildServeEngine(set map[string]bool, f serveFlags, log *slog.Logger) (*serve.Engine, error) {
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

	cfg := serve.Config{
		SketchK:                f.sketchK,
		Diagnose:               f.diagnose,
		Ring:                   f.ring,
		Pace:                   f.pace,
		CheckpointPath:         f.checkpoint,
		CheckpointEveryWindows: f.checkpointEvery,
		MaxWindows:             f.maxWindows,
		SessionsPerWindow:      f.sessionsPerWindow,
		WindowMS:               f.windowMin * 60 * 1000,
	}
	if f.spec == "" {
		cfg.Scenario = workload.Scenario{
			Seed:        f.seed,
			NumPrefixes: f.prefixes,
			Catalog:     catalog.Config{NumVideos: f.videos},
			ABRName:     f.abrName,
			ColdStart:   f.cold,
			Parallelism: f.parallel,
		}
		return serve.NewEngine(cfg, log)
	}

	sp, err := experiment.LoadFile(f.spec)
	if err != nil {
		return nil, err
	}
	cells, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	if len(cells) != 1 {
		return nil, fmt.Errorf("spec %s expands to %d cells; vodsim serve runs single-cell specs", sp.Name, len(cells))
	}
	cfg.Scenario = cells[0].Scenario
	if set["prefixes"] {
		cfg.Scenario.NumPrefixes = f.prefixes
	}
	if set["videos"] {
		cfg.Scenario.Catalog.NumVideos = f.videos
	}
	if set["parallel"] {
		cfg.Scenario.Parallelism = f.parallel
	}
	if !set["sketch-k"] && sp.SketchK > 0 {
		cfg.SketchK = sp.SketchK
	}
	if !set["diagnose"] {
		cfg.Diagnose = sp.Diagnosis
	}
	if !set["window-min"] {
		// Left at 0, the window is the serve block's window_min if set,
		// else the scenario's arrival window (serve.Config's default).
		cfg.WindowMS = 0
	}
	// The spec's serve block fills every serve knob the command line left
	// at its default; an explicitly-set flag wins.
	if sv := sp.Serve; sv != nil {
		if !set["sessions-per-window"] && sv.SessionsPerWindow > 0 {
			cfg.SessionsPerWindow = sv.SessionsPerWindow
		} else if !set["sessions-per-window"] {
			cfg.SessionsPerWindow = cfg.Scenario.NumSessions
		}
		if !set["window-min"] && sv.WindowMin > 0 {
			cfg.WindowMS = sv.WindowMS()
		}
		if !set["ring"] && sv.Ring > 0 {
			cfg.Ring = sv.Ring
		}
		if !set["pace"] && sv.Pace > 0 {
			cfg.Pace = sv.Pace
		}
		if !set["checkpoint-every"] && sv.CheckpointEveryWindows > 0 {
			cfg.CheckpointEveryWindows = sv.CheckpointEveryWindows
		}
	} else if !set["sessions-per-window"] {
		cfg.SessionsPerWindow = cfg.Scenario.NumSessions
	}
	return serve.NewEngine(cfg, log)
}
