package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloads are the benchmark's input mixes. Each is a closed loop: one
// client issues ops back to back, every scenario at Parallelism 1, one
// cell at a time, so the spare cores carry only the garbage collector.
// They are chosen so that different layers dominate: per-chunk event
// loop and telemetry fold (vod-stream), per-window fixed costs
// (serve-windows), the cache write path and every optional scenario
// family (feature-sweep), and trace encoding without any telemetry fold
// (trace-analyze).
var workloads = []workloadDef{
	{
		name: "vod-stream",
		why:  "5k-session paper-baseline VoD cells on warm caches with diagnosis: the event loop, substrates and telemetry fold dominate; cache traffic is read-mostly hits",
		open: func(e *env) (runner, error) { return openCells(e, "vod-stream", false, "vod-stream") },
	},
	{
		name: "serve-windows",
		why:  "500-session serve windows with checkpoints every 6: fleet build, warm-up, merge and checkpoint encode repeat per window, so fixed per-run costs dominate",
		open: openServe,
	},
	{
		name: "feature-sweep",
		why:  "2k-session cells cycling cold flash crowd, PoP outage, live switch storm and proxied cohorts, each ingested into the store: cache writes and every optional family",
		open: func(e *env) (runner, error) {
			return openCells(e, "feature-sweep", true,
				"feature-flash-cold", "feature-pop-outage", "feature-switch-storm", "feature-proxied")
		},
	},
	{
		name: "trace-analyze",
		why:  "2.5k-session dataset written as JSONL, read back, proxy-detected and rendered into every figure: trace codec work with no telemetry fold",
		open: openTrace,
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// cellRunner runs vod-stream and feature-sweep: op i is RunCell of cell
// i mod len(cells), and with a store, the snapshot's ingest into it.
type cellRunner struct {
	name  string
	seed  uint64
	cells []*benchSpec
	dirs  []string // one snapshot directory per cell
	store *cellStore
}

func openCells(e *env, name string, ingest bool, files ...string) (runner, error) {
	r := &cellRunner{name: name, seed: e.seed}
	for _, f := range files {
		b, err := e.spec(f, false)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(e.dir, b.spec.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		r.cells = append(r.cells, b)
		r.dirs = append(r.dirs, dir)
	}
	if ingest {
		r.store = newCellStore(filepath.Join(e.dir, "campaign-store.json"))
	}
	return r, nil
}

func (r *cellRunner) op(i, parallel int) (opOutput, error) {
	k := i % len(r.cells)
	return runCellOp(r.cells[k], r.cells[k].at(opSeed(r.seed, r.name, i), parallel), r.dirs[k], r.store)
}

func (r *cellRunner) setup() (opOutput, error) { return r.op(0, 1) }

func (r *cellRunner) cycle() int { return len(r.cells) }

func (r *cellRunner) timed(sample func(opOutput, time.Duration) bool) error {
	loopOps(r.op, sample)
	return nil
}

func (r *cellRunner) recheck(sum [sha256.Size]byte, nproc int) (int, error) {
	out, err := r.op(0, nproc)
	return 1, sameAs(out, err, sum, fmt.Sprintf("op 0 at Parallelism %d", nproc))
}

// traceOps covers at least ops 0 and 1, and one whole cycle of cells.
func (r *cellRunner) traceOps() int { return max(2, len(r.cells)) }

func (r *cellRunner) trace(t *layerTotals, refs []ref, op func(error, float64)) error {
	for i, ref := range refs {
		k := i % len(r.cells)
		b := r.cells[k]
		out, wall, err := traceCellOp(b, b.at(opSeed(r.seed, r.name, i), 1), ref.labels, r.dirs[k], r.store, t, i == 0)
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		op(sameAs(out, nil, ref.sum, fmt.Sprintf("traced op %d", i)), wall)
	}
	return nil
}

// traceRunner runs trace-analyze: every op is runTraceOp.
type traceRunner struct {
	seed uint64
	spec *benchSpec
	dir  string
}

func openTrace(e *env) (runner, error) {
	b, err := e.spec("trace-analyze", false)
	if err != nil {
		return nil, err
	}
	return &traceRunner{seed: e.seed, spec: b, dir: e.dir}, nil
}

func (r *traceRunner) op(i, parallel int) (opOutput, error) {
	return runTraceOp(r.spec, r.spec.at(opSeed(r.seed, "trace-analyze", i), parallel))
}

func (r *traceRunner) setup() (opOutput, error) { return r.op(0, 1) }

func (r *traceRunner) cycle() int { return 1 }

func (r *traceRunner) timed(sample func(opOutput, time.Duration) bool) error {
	loopOps(r.op, sample)
	return nil
}

// recheck additionally checks that the trace survives a read and a
// second write byte for byte.
func (r *traceRunner) recheck(sum [sha256.Size]byte, nproc int) (int, error) {
	out, err := r.op(0, nproc)
	if err := sameAs(out, err, sum, fmt.Sprintf("op 0 at Parallelism %d", nproc)); err != nil {
		return 1, err
	}
	return 1, traceRoundTrip(out.data)
}

func (r *traceRunner) traceOps() int { return 2 }

func (r *traceRunner) trace(t *layerTotals, refs []ref, op func(error, float64)) error {
	for i, ref := range refs {
		out, wall, err := traceDatasetOp(r.spec, r.spec.at(opSeed(r.seed, "trace-analyze", i), 1), r.dir, t, i == 0)
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		op(sameAs(out, nil, ref.sum, fmt.Sprintf("traced op %d", i)), wall)
	}
	return nil
}

// serveRunner runs serve-windows: op i is service window i of one
// engine. Set-up runs window 0 and checkpoints; the timed ops resume
// that checkpoint and run windows 1, 2, ... until the time is spent.
type serveRunner struct {
	spec *benchSpec
	seed uint64 // the serve seed; windows derive theirs from it
	dir  string
}

// serveTraceWindows is how many windows the traced replay repeats: at the
// serve-windows spec, two scheduled checkpoints and one window past a full
// ring, so the ring evicts and the final checkpoint is the exit one.
const serveTraceWindows = 13

func openServe(e *env) (runner, error) {
	b, err := e.spec("serve-windows", true)
	if err != nil {
		return nil, err
	}
	return &serveRunner{spec: b, seed: opSeed(e.seed, "serve-windows", 0), dir: e.dir}, nil
}

func (r *serveRunner) path(name string) string { return filepath.Join(r.dir, name) }

// engine runs a fresh engine for the given number of windows and
// returns its cumulative snapshot as the output.
func (r *serveRunner) engine(windows, parallel int, checkpoint string) (opOutput, error) {
	cfg := serveConfig(r.spec, r.seed, parallel)
	cfg.MaxWindows = windows
	cfg.CheckpointPath = checkpoint
	out := opOutput{want: uint64(windows * cfg.SessionsPerWindow)}
	g, err := runEngine(cfg, "", func(sessions, chunks uint64) bool {
		out.sessions += sessions
		out.chunks += chunks
		return true
	})
	if err != nil {
		return out, err
	}
	out.data, err = g.snapshot()
	return out, err
}

func (r *serveRunner) setup() (opOutput, error) {
	return r.engine(1, 1, r.path("setup.ckpt"))
}

func (r *serveRunner) cycle() int { return 1 }

// timed resumes set-up's checkpoint, so the first timed window is window
// 1, and checkpoints on the spec's schedule and at exit. The final
// checkpoint must cover every window run and each window's sessions.
func (r *serveRunner) timed(sample func(opOutput, time.Duration) bool) error {
	cfg := serveConfig(r.spec, r.seed, 1)
	cfg.CheckpointPath = r.path("serve.ckpt")
	windows := 1
	last := time.Now()
	_, err := runEngine(cfg, r.path("setup.ckpt"), func(sessions, chunks uint64) bool {
		d := time.Since(last)
		windows++
		more := sample(opOutput{want: uint64(cfg.SessionsPerWindow), sessions: sessions, chunks: chunks}, d)
		last = time.Now() // sample's own work is not the next window's
		return more
	})
	if err != nil {
		return err
	}
	done, sessions, err := checkpointTotals(cfg.CheckpointPath)
	if err != nil {
		return err
	}
	if want := uint64(windows * cfg.SessionsPerWindow); done != windows || sessions != want {
		return fmt.Errorf("final checkpoint holds %d windows and %d sessions, want %d and %d", done, sessions, windows, want)
	}
	return nil
}

// recheck compares two-window engines at Parallelism 1 and nproc.
func (r *serveRunner) recheck(_ [sha256.Size]byte, nproc int) (int, error) {
	a, err := r.engine(2, 1, r.path("recheck.ckpt"))
	if err == nil {
		err = a.check()
	}
	if err != nil {
		return 1, err
	}
	b, err := r.engine(2, nproc, r.path("recheck.ckpt"))
	return 2, sameAs(b, err, refOf(a).sum, fmt.Sprintf("two-window engine at Parallelism %d", nproc))
}

func (r *serveRunner) traceOps() int { return serveTraceWindows }

func (r *serveRunner) trace(t *layerTotals, _ []ref, op func(error, float64)) error {
	return traceServe(r.spec, r.seed, serveTraceWindows, r.dir, t, func(out opOutput, wall float64) {
		op(out.check(), wall)
	})
}

// loopOps runs ops 1, 2, ... at Parallelism 1 until sample returns false.
func loopOps(op func(i, parallel int) (opOutput, error), sample func(opOutput, time.Duration) bool) {
	for i := 1; ; i++ {
		t0 := time.Now()
		out, err := op(i, 1)
		d := time.Since(t0)
		if err != nil {
			out.err = err
		}
		if !sample(out, d) {
			return
		}
	}
}

// sameAs checks an op's outcome, then its output against an earlier
// output's digest; what names the op in the error.
func sameAs(out opOutput, err error, sum [sha256.Size]byte, what string) error {
	if err == nil {
		err = out.check()
	}
	if err != nil {
		return err
	}
	if refOf(out).sum != sum {
		return fmt.Errorf("%s output differs from the untimed Parallelism 1 run's", what)
	}
	return nil
}
