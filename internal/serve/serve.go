// Package serve turns the batch streaming pipeline into a long-lived
// service: an engine generates an open-ended sequence of session-arrival
// windows against the simulated CDN, folds each closed window's
// telemetry into a rolling ring and a cumulative snapshot, and exposes
// the state over HTTP (/snapshot, /windows, /diagnose, /metrics) with
// synchronous checkpointing (POST /checkpoint, plus checkpoint-on-exit)
// for byte-identical resume.
//
// The determinism invariant extends the batch one: virtual time is an
// infinite sequence of service windows, window w covering
// [w·W, (w+1)·W) on the virtual clock, and each window is an ordinary
// batch sub-campaign — SessionsPerWindow sessions, arrival window W,
// arrival offset w·W, and seed WindowSeed(base, w). Window 0 runs at the
// base seed with offset 0, so a one-window serve run is the literal
// batch `vodsim -stream` campaign, byte for byte. The cumulative
// snapshot is the fold (telemetry.MergeSnapshots) of the closed windows'
// window-stripped snapshots in window order; a checkpoint stores the
// fold, the ring, and the window counter, and a resumed engine replays
// windows k, k+1, … exactly as the uninterrupted run would, at any
// Scenario.Parallelism. Wall-clock pacing (Config.Pace) only schedules
// when windows run — it never feeds the simulation.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"vidperf/internal/session"
	"vidperf/internal/stats"
	"vidperf/internal/telemetry"
	"vidperf/internal/timeline"
	"vidperf/internal/workload"
)

// Config parameterizes one serve engine. The zero value of the optional
// fields takes the documented defaults; Validate rejects configurations
// the engine cannot run deterministically.
type Config struct {
	// Scenario is the base per-window scenario: its Seed is the serve
	// seed, and its population/fleet/ABR knobs apply to every window.
	// NumSessions and ArrivalWindowMS act as defaults for
	// SessionsPerWindow and WindowMS; ArrivalOffsetMS must be zero (the
	// engine owns the virtual clock), and Timeline and Live must be empty
	// (phase injection and live channels are batch-campaign features).
	Scenario workload.Scenario

	// SessionsPerWindow is the number of sessions each service window
	// generates (0 uses the effective Scenario.NumSessions).
	SessionsPerWindow int
	// WindowMS is the virtual length of one service window
	// (0 uses the effective Scenario.ArrivalWindowMS, 30 minutes).
	WindowMS float64
	// Ring is how many closed windows /windows retains (default 12).
	Ring int
	// SketchK is the quantile-sketch parameter (<= 0 selects
	// telemetry.DefaultSketchK).
	SketchK int
	// Diagnose classifies every session with internal/diagnose, enabling
	// /diagnose and the per-label Prometheus counters.
	Diagnose bool

	// Pace is the virtual-to-wall speed factor: pace 60 plays a 30-minute
	// window every 30 wall-seconds. Zero runs windows back to back at
	// full speed.
	Pace float64
	// CheckpointPath, when set, is where checkpoints are written: on
	// POST /checkpoint, every CheckpointEveryWindows windows, and when
	// Run exits (SIGTERM shutdown included).
	CheckpointPath string
	// CheckpointEveryWindows writes a checkpoint after every n-th closed
	// window (0 = only on demand and at exit).
	CheckpointEveryWindows int
	// MaxWindows stops the engine after this many total closed windows
	// (0 = run until the context is cancelled).
	MaxWindows int
}

// withDefaults resolves the optional fields against the scenario's
// effective configuration.
func (c Config) withDefaults() Config {
	eff := c.Scenario.WithDefaults()
	if c.SessionsPerWindow <= 0 {
		c.SessionsPerWindow = eff.NumSessions
	}
	if c.WindowMS <= 0 {
		c.WindowMS = eff.ArrivalWindowMS
	}
	if c.Ring <= 0 {
		c.Ring = 12
	}
	return c
}

// Validate is the one range check of the serve knobs: it rejects a
// negative or non-finite value (0 selects the default), and the
// scenario features serve mode cannot run.
func (c Config) Validate() error {
	if !c.Scenario.Timeline.Empty() {
		return errors.New("serve: scenario timelines are not supported in serve mode (phase injection is a batch-campaign feature)")
	}
	if c.Scenario.Live.Enabled() {
		return errors.New("serve: live channels are not supported in serve mode (live channels are a batch-campaign feature)")
	}
	if c.Scenario.ArrivalOffsetMS != 0 {
		return errors.New("serve: Scenario.ArrivalOffsetMS is owned by the serve engine and must be zero")
	}
	// A non-finite window length would put windows at NaN or infinite
	// virtual times, and a non-finite pace gives no wall-clock schedule.
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"SessionsPerWindow", float64(c.SessionsPerWindow)},
		{"WindowMS", c.WindowMS},
		{"Ring", float64(c.Ring)},
		{"Pace", c.Pace},
		{"CheckpointEveryWindows", float64(c.CheckpointEveryWindows)},
		{"MaxWindows", float64(c.MaxWindows)},
	} {
		if !(f.value >= 0) || math.IsInf(f.value, 0) {
			return fmt.Errorf("serve: %s %g, want a finite value >= 0 (0 selects the default)", f.name, f.value)
		}
	}
	return nil
}

// seedGamma is the Weyl increment that spaces per-window seed inputs;
// the same constant the per-session RNG streams use.
const seedGamma = 0x9e3779b97f4a7c15

// WindowSeed derives service window idx's scenario seed from the serve
// seed. Window 0 *is* the base seed — a one-window serve run and the
// equivalent batch run share every RNG stream — and later windows mix
// the index through stats.SplitMix64 so their session streams are
// statistically independent of each other and of the base.
func WindowSeed(base uint64, idx int) uint64 {
	if idx <= 0 {
		return base
	}
	return stats.SplitMix64(base ^ uint64(idx)*seedGamma)
}

// WindowName names service window idx. The zero-padded index keeps
// lexicographic key order equal to time order in snapshot counters, like
// timeline window names.
func WindowName(idx int) string {
	return fmt.Sprintf("w%06d", idx)
}

// WindowResult is one closed window's entry in the ring: its index, its
// span on the virtual clock, and its full windowed snapshot (stamped
// with the window's end time).
type WindowResult struct {
	Index    int                 `json:"index"`
	Window   timeline.Window     `json:"window"`
	Snapshot *telemetry.Snapshot `json:"snapshot"`
}

// Engine is the serve loop plus its published state. Run drives it from
// one goroutine; the HTTP handlers (http.go) read the published state
// under the mutex, so snapshots are always of whole closed windows.
type Engine struct {
	cfg Config
	log *slog.Logger

	// live is the in-flight window's progress, read lock-free by /metrics
	// and /status.
	live session.Progress

	mu        sync.RWMutex
	cum       *telemetry.Snapshot // fold of closed windows, window-stripped
	ring      []WindowResult      // last Config.Ring closed windows, ascending
	done      int                 // closed windows, ever (survives resume)
	virtualMS float64             // done * WindowMS
	lastRate  float64             // records/sec of the last closed window (wall clock)
	startWall time.Time

	// ckptReq carries synchronous checkpoint requests from the HTTP
	// handler to the engine goroutine, which services them only at window
	// boundaries — the only instants the state is checkpointable.
	ckptReq chan chan ckptReply
}

// NewEngine builds an engine for a fresh run (virtual time zero). It
// refuses a configuration Run would fail on: one Config.Validate or
// workload.Scenario.Validate rejects, an unknown ABR, or periodic
// checkpoints with no path to write them to.
func NewEngine(cfg Config, log *slog.Logger) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if _, err := session.NewABR(cfg.Scenario.ABRName); err != nil {
		return nil, err
	}
	// Config.Validate cannot check this: a spec's serve block is
	// validated before any command gives it a checkpoint path.
	if cfg.CheckpointEveryWindows > 0 && cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("serve: CheckpointEveryWindows %d but no CheckpointPath: nowhere to write the checkpoints", cfg.CheckpointEveryWindows)
	}
	if log == nil {
		log = slog.Default()
	}
	return &Engine{
		cfg:     cfg.withDefaults(),
		log:     log,
		ckptReq: make(chan chan ckptReply, 16),
	}, nil
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// WindowsDone returns how many windows have closed (including windows
// restored from a checkpoint).
func (e *Engine) WindowsDone() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.done
}

// VirtualMS returns the virtual-clock time covered by the closed
// windows.
func (e *Engine) VirtualMS() float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.virtualMS
}

// Run executes service windows until the context is cancelled or
// MaxWindows is reached, then — when CheckpointPath is set — writes a
// final checkpoint so a SIGTERM'd run resumes where it stopped. A
// cancellation arriving mid-window lets the window finish (the
// discrete-event shards are not interruptible) and is honoured at the
// next boundary.
func (e *Engine) Run(ctx context.Context) error {
	e.startWall = time.Now()
	done0 := e.WindowsDone()
	for {
		idx := e.WindowsDone()
		if ctx.Err() != nil || (e.cfg.MaxWindows > 0 && idx >= e.cfg.MaxWindows) {
			break
		}
		wallStart := time.Now()
		sn, w, err := e.runWindow(idx)
		if err != nil {
			e.failCheckpointWaiters(err)
			return err
		}
		e.publish(idx, w, sn, time.Since(wallStart))
		e.log.Info("window closed",
			slog.Int("window", idx),
			slog.Float64("virtual_ms", w.EndMS),
			slog.Uint64("sessions", sn.Counter(telemetry.CounterSessions)),
			slog.Uint64("chunks", sn.Counter(telemetry.CounterChunks)),
			slog.Duration("wall", time.Since(wallStart)))
		if e.cfg.CheckpointEveryWindows > 0 && (idx+1)%e.cfg.CheckpointEveryWindows == 0 {
			if err := e.checkpointNow(); err != nil {
				e.failCheckpointWaiters(err)
				return err
			}
		}
		e.drainCheckpointRequests()
		if !e.pace(ctx, done0) {
			break
		}
	}
	var err error
	if e.cfg.CheckpointPath != "" && e.WindowsDone() > 0 {
		err = e.checkpointNow()
	}
	e.drainCheckpointRequests()
	return err
}

// runWindow executes service window idx as a batch sub-campaign: the
// base scenario at the window's derived seed, offset onto the virtual
// clock, with a single report window covering its span so the snapshot
// carries the per-window counters the ring serves.
func (e *Engine) runWindow(idx int) (*telemetry.Snapshot, timeline.Window, error) {
	sc := e.cfg.Scenario
	sc.Seed = WindowSeed(e.cfg.Scenario.Seed, idx)
	sc.NumSessions = e.cfg.SessionsPerWindow
	sc.ArrivalWindowMS = e.cfg.WindowMS
	sc.ArrivalOffsetMS = float64(idx) * e.cfg.WindowMS
	w := timeline.Window{
		Name:    WindowName(idx),
		StartMS: sc.ArrivalOffsetMS,
		EndMS:   sc.ArrivalOffsetMS + e.cfg.WindowMS,
	}
	res, err := session.Execute(sc, session.Options{
		Telemetry: true,
		SketchK:   e.cfg.SketchK,
		Diagnose:  e.cfg.Diagnose,
		Windows:   []timeline.Window{w},
		Progress:  &e.live,
	})
	if err != nil {
		return nil, w, fmt.Errorf("serve: window %d: %w", idx, err)
	}
	return res.Snapshot, w, nil
}

// publish folds one closed window into the published state: the stamped
// windowed snapshot joins the ring, and its window-stripped view joins
// the cumulative fold. Stripping before folding is what keeps the
// cumulative snapshot byte-identical to the equivalent batch run — the
// base aggregates of a windowed run are exactly the batch run's (window
// attribution only adds keys next to them).
func (e *Engine) publish(idx int, w timeline.Window, sn *telemetry.Snapshot, wall time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sn.VirtualMS = w.EndMS
	e.ring = append(e.ring, WindowResult{Index: idx, Window: w, Snapshot: sn})
	if len(e.ring) > e.cfg.Ring {
		e.ring = e.ring[len(e.ring)-e.cfg.Ring:]
	}
	cum, err := telemetry.MergeSnapshots(e.cum, telemetry.WithoutWindows(sn))
	if err != nil {
		// Unreachable with a fixed sketch k, the only shape a merge
		// checks; a panic here means published state would diverge from
		// the fold contract, which must not go unnoticed.
		panic(err)
	}
	e.cum = cum
	e.done = idx + 1
	e.virtualMS = w.EndMS
	if s := wall.Seconds(); s > 0 {
		e.lastRate = float64(sn.Counter(telemetry.CounterChunks)) / s
	}
}

// pace sleeps until the wall-clock target for the number of windows
// closed since Run started, servicing checkpoint requests while it
// waits. It returns false when the context is cancelled.
func (e *Engine) pace(ctx context.Context, done0 int) bool {
	if e.cfg.Pace <= 0 {
		return ctx.Err() == nil
	}
	wallPerWindow := time.Duration(e.cfg.WindowMS / e.cfg.Pace * float64(time.Millisecond))
	target := e.startWall.Add(time.Duration(e.WindowsDone()-done0) * wallPerWindow)
	for {
		d := time.Until(target)
		if d <= 0 {
			return ctx.Err() == nil
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return false
		case reply := <-e.ckptReq:
			t.Stop()
			e.serviceCheckpointRequest(reply)
		case <-t.C:
			return ctx.Err() == nil
		}
	}
}
