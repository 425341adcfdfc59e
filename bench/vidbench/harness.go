package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// processStart is taken during package initialization, before main: the
// first set-up repetition is charged from here.
var processStart = time.Now()

// setupReps is how many times a run sets its workload up (open the specs,
// run op 0); setup_s is the median.
const setupReps = 5

// opOutput is what one op produced, as far as the checks need it.
type opOutput struct {
	want     uint64 // sessions the op requested
	sessions uint64 // sessions the op's output counts
	chunks   uint64
	// data is the op's output bytes (snapshot or trace), compared across
	// repetitions, parallelism settings and the traced replay; nil when
	// the op has no single output of its own (a serve window).
	data   []byte
	labels map[string]string // snapshot labels, handed to the traced replay
	err    error
}

// check is the per-op output check: the op succeeded, its output counts
// every session it requested, and at least one chunk was fetched.
func (o opOutput) check() error {
	switch {
	case o.err != nil:
		return o.err
	case o.sessions != o.want:
		return fmt.Errorf("output counts %d sessions, %d requested", o.sessions, o.want)
	case o.chunks == 0:
		return errors.New("output counts no chunks")
	}
	return nil
}

// ref identifies one untimed op's output for a later comparison.
type ref struct {
	sum    [sha256.Size]byte
	labels map[string]string
}

func refOf(o opOutput) ref { return ref{sum: sha256.Sum256(o.data), labels: o.labels} }

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload run: op accounting, failures, and metrics.
type result struct {
	attempted, failed int
	failures          []string
	endToEnd          []metric // the metrics a user of the simulator sees
	info              []metric // end-to-end context printed as text only
	perLayer          []metric // per-layer means of the traced replay
	layerInfo         []metric // per-layer metrics of one workload's own layers, text only
}

// op records one attempted op and whether it passed.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

func (r *result) correct() bool { return r.failed == 0 }

// runner runs one workload's ops. Op 0 is the set-up op; ops 1, 2, ...
// are timed; every op runs at Parallelism 1.
type runner interface {
	// setup runs op 0.
	setup() (opOutput, error)
	// cycle is the number of consecutive ops that repeat the workload's
	// mix (feature-sweep's ops alternate between cells).
	cycle() int
	// timed runs ops 1, 2, ... back to back, reporting each op's output
	// and wall time to sample, until sample returns false.
	timed(sample func(opOutput, time.Duration) bool) error
	// recheck re-runs op 0 at nproc-way parallelism, untimed, and
	// verifies its output equals set-up's (sum). It returns how many ops
	// it ran.
	recheck(sum [sha256.Size]byte, nproc int) (int, error)
	// traceOps is how many of ops 0, 1, ... the traced replay repeats.
	traceOps() int
	// trace replays those ops with each layer call timed. refs are the
	// untimed outputs of the same ops; op reports each replayed op's
	// output check and wall time.
	trace(t *layerTotals, refs []ref, op func(err error, wallMS float64)) error
}

// workloadDef is one named input mix of the benchmark.
type workloadDef struct {
	name string
	why  string
	open func(e *env) (runner, error)
}

// env is what a runner needs from the run.
type env struct {
	seed   uint64
	dir    string // working directory for snapshot, store and checkpoint files
	resize func(*benchSpec)
}

// spec loads one of the workload spec files (see loadSpec).
func (e *env) spec(file string, wantServe bool) (*benchSpec, error) {
	b, err := loadSpec(file, wantServe)
	if err == nil && e.resize != nil {
		e.resize(b)
	}
	return b, err
}

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// resize, when set, edits every loaded spec before its first op: the
	// tests shrink the pinned specs with it. A benchmark run leaves it nil.
	resize func(*benchSpec)
}

// measure runs one workload: set-up (setupReps times), timed ops for the
// configured seconds, the parallelism re-check, and, when tracing, the
// traced replay. Errors that stop the run before any op was timed are
// returned; everything later counts as a failed op.
func measure(w workloadDef, cfg config) (*result, error) {
	dir, err := os.MkdirTemp("", "vidbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: cfg.seed, dir: dir, resize: cfg.resize}
	res := &result{}

	// Each time metric is rescaled to the nominal host; see hostClock.
	var hc hostClock
	var r runner
	var setup []float64
	var ref0 ref
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = processStart
		}
		if r, err = w.open(e); err != nil {
			return nil, err
		}
		out, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("%s: op 0: %w", w.name, err)
		}
		s := time.Since(t0).Seconds()
		f, _ := hc.scale()
		setup = append(setup, s*f)
		if rep == 0 {
			ref0 = refOf(out)
			res.op(out.check())
		} else {
			res.op(sameAs(out, nil, ref0.sum, fmt.Sprintf("set-up repetition %d", rep)))
		}
	}

	// Timed ops. Each op's wall and CPU time is taken on its own, rescaled,
	// and ops are grouped into cycles; the time metrics are medians over
	// cycles.
	cycle := r.cycle()
	keep := r.traceOps()
	refs := []ref{ref0}
	var ops []opSample
	budget := time.Duration(cfg.seconds * float64(time.Second))
	rss, err := startRSS()
	if err != nil {
		return nil, err
	}
	before := readUsage()
	lastCPU := before.cpuS
	rss.take()
	start := time.Now()
	err = r.timed(func(out opOutput, d time.Duration) bool {
		raw := float64(d) / 1e6
		rssMB := rss.take()
		f, cpuS := hc.scale()
		cpuS -= lastCPU
		ops = append(ops, opSample{ms: raw * f, rawMS: raw, cpuS: cpuS * f, rssMB: rssMB, sessions: out.sessions, chunks: out.chunks})
		res.op(out.check())
		if len(refs) < keep && out.data != nil {
			refs = append(refs, refOf(out))
		}
		lastCPU = cpuSeconds() // calibration and digest are not the next op's CPU time
		return time.Since(start) < budget || len(ops)%cycle != 0
	})
	after := readUsage()
	rss.close()
	if err != nil {
		res.op(fmt.Errorf("timed ops: %w", err))
	}
	n, err := r.recheck(ref0.sum, runtime.NumCPU())
	res.attempted += n - 1
	res.op(err)

	var chunks float64
	opMS := make([]float64, len(ops))
	for i, o := range ops {
		chunks += float64(o.chunks)
		opMS[i] = o.ms
	}
	cs := perCycle(ops, cycle)
	p50 := quantile(cs.opMS, 0.5)
	res.endToEnd = []metric{
		{"sessions_per_s", quantile(cs.sessionsPerS, 0.5), "sessions/s"},
		{"chunks_per_s", quantile(cs.chunksPerS, 0.5), "chunks/s"},
		{"sessions_per_cpu_s", quantile(cs.sessionsPerCPUS, 0.5), "sessions/cpu_s"},
		{"op_ms_p50", p50, "ms"},
		{"setup_s", quantile(setup, 0.5), "s"},
		{"peak_rss_mb", quantile(cs.peakRSSMB, 0.5), "MB"},
		{"allocs_per_chunk", ratio(after.allocs-before.allocs, chunks), "allocs/chunk"},
		{"alloc_bytes_per_chunk", ratio(after.allocBytes-before.allocBytes, chunks), "B/chunk"},
	}
	res.info = append(res.info,
		metric{"op_ms_p50_raw", quantile(cs.rawOpMS, 0.5), "ms"},
		metric{"timed_ops", float64(len(ops)), "count"})
	if p90, ok := tailQuantile(opMS, 0.9); ok {
		res.info = append(res.info, metric{"op_ms_p90", p90, "ms"})
	}

	if cfg.trace {
		t := &layerTotals{}
		var wallMS float64
		err := r.trace(t, refs, func(err error, ms float64) {
			res.op(err)
			t.ops++
			f, _ := hc.scale()
			wallMS += ms * f
		})
		if err != nil {
			res.op(fmt.Errorf("traced replay: %w", err))
		}
		nops := float64(len(ops))
		res.perLayer = t.metrics()
		res.perLayer = append(res.perLayer,
			metric{"runtime.gc_cycles", ratio(after.gcCycles-before.gcCycles, nops), "count"},
			metric{"runtime.gc_cpu_s", ratio(after.gcCPUS-before.gcCPUS, nops), "s"},
			metric{"runtime.gc_pause_ms", ratio(after.gcPauseMS-before.gcPauseMS, nops), "ms"},
			metric{"bench.trace_overhead_frac", ratio(ratio(wallMS, float64(t.ops)), p50) - 1, "ratio"},
		)
		res.layerInfo = t.extra.metrics()
	}
	res.info = append(res.info,
		metric{"failed_op_frac", ratio(float64(res.failed), float64(res.attempted)), "ratio"},
		metric{"host_calibration_ms", quantile(hc.cals, 0.5), "ms"})
	for _, m := range append(append([]metric(nil), res.endToEnd...), res.perLayer...) {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			res.op(fmt.Errorf("metric %s is %v", m.name, m.value))
		}
	}
	return res, nil
}

// opSample is one timed op's cost, rescaled and raw, its peak resident
// set, and its output size.
type opSample struct {
	ms, rawMS, cpuS, rssMB float64
	sessions, chunks       uint64
}

// cycleStats holds, per cycle of ops, the mean op time (rescaled and raw),
// the cycle's throughput in wall and CPU time, and its peak resident set.
type cycleStats struct {
	opMS, rawOpMS, sessionsPerS, chunksPerS, sessionsPerCPUS, peakRSSMB []float64
}

// perCycle folds consecutive runs of cycle ops into cycles.
func perCycle(ops []opSample, cycle int) cycleStats {
	var cs cycleStats
	for i := 0; i+cycle <= len(ops); i += cycle {
		var ms, rawMS, cpuS, rssMB, sessions, chunks float64
		for _, o := range ops[i : i+cycle] {
			ms += o.ms
			rawMS += o.rawMS
			cpuS += o.cpuS
			rssMB = max(rssMB, o.rssMB)
			sessions += float64(o.sessions)
			chunks += float64(o.chunks)
		}
		cs.opMS = append(cs.opMS, ms/float64(cycle))
		cs.rawOpMS = append(cs.rawOpMS, rawMS/float64(cycle))
		cs.peakRSSMB = append(cs.peakRSSMB, rssMB)
		cs.sessionsPerS = append(cs.sessionsPerS, ratio(sessions, ms/1000))
		cs.chunksPerS = append(cs.chunksPerS, ratio(chunks, ms/1000))
		cs.sessionsPerCPUS = append(cs.sessionsPerCPUS, ratio(sessions, cpuS))
	}
	return cs
}

// layerTotals accumulates the traced replay's per-layer timings over its
// ops; metrics turns them into per-op means and per-call costs.
type layerTotals struct {
	ops int

	buildMS, partitionMS, fleetMS, warmMS, shards float64
	executeMS, sinkMS                             float64 // sinkMS: time inside the op's record sinks
	foldMS, foldChunks, mergeMS                   float64
	encodeMS, decodeMS, snapshotKB                float64
	ingestMS, writeMS, queryMS                    float64
	chunks, hits, retries                         float64
	lookupNS, lookups, lookupHits                 float64
	tcpNS, tcpCalls, playerNS, playerCalls        float64
	abrNS, abrCalls                               float64

	// extra holds the layers only some workloads have (serve, JSONL,
	// detector, figures).
	extra extras
}

func (t *layerTotals) metrics() []metric {
	ops := float64(t.ops)
	per := func(v float64) float64 { return ratio(v, ops) }
	return []metric{
		{"workload.build_ms", per(t.buildMS), "ms"},
		{"workload.partition_ms", per(t.partitionMS), "ms"},
		{"cdn.fleet_ms", per(t.fleetMS), "ms"},
		{"session.warm_ms", per(t.warmMS), "ms"},
		{"session.shards", per(t.shards), "count"},
		{"session.execute_ms", per(t.executeMS), "ms"},
		{"session.loop_self_ms", per(t.executeMS - t.buildMS - t.partitionMS - t.fleetMS - t.warmMS - t.sinkMS), "ms"},
		{"tcpmodel.transfer_ns", ratio(t.tcpNS, t.tcpCalls), "ns"},
		{"player.step_ns", ratio(t.playerNS, t.playerCalls), "ns"},
		{"abr.next_ns", ratio(t.abrNS, t.abrCalls), "ns"},
		{"cache.lookup_ns", ratio(t.lookupNS, t.lookups), "ns"},
		{"cache.probe_hit_ratio", ratio(t.lookupHits, t.lookups), "ratio"},
		{"cdn.hit_ratio", ratio(t.hits, t.chunks), "ratio"},
		{"cdn.retry_share", ratio(t.retries, t.chunks), "ratio"},
		{"telemetry.fold_ms", per(t.foldMS), "ms"},
		{"telemetry.fold_ns_per_chunk", ratio(t.foldMS*1e6, t.foldChunks), "ns"},
		{"telemetry.merge_ms", per(t.mergeMS), "ms"},
		{"telemetry.encode_ms", per(t.encodeMS), "ms"},
		{"telemetry.decode_ms", per(t.decodeMS), "ms"},
		{"telemetry.snapshot_kb", per(t.snapshotKB), "KB"},
		{"store.ingest_ms", per(t.ingestMS), "ms"},
		{"store.write_ms", per(t.writeMS), "ms"},
		{"store.query_ms", per(t.queryMS), "ms"},
	}
}

// extras is an ordered set of metrics, each reported as the mean of the
// values added under its name.
type extras struct {
	names []string
	vals  map[string]*extra
}

type extra struct {
	sum  float64
	n    int
	unit string
}

func (x *extras) add(name string, v float64, unit string) {
	if x.vals == nil {
		x.vals = map[string]*extra{}
	}
	e, ok := x.vals[name]
	if !ok {
		e = &extra{unit: unit}
		x.vals[name] = e
		x.names = append(x.names, name)
	}
	e.sum += v
	e.n++
}

func (x *extras) metrics() []metric {
	out := make([]metric, 0, len(x.names))
	for _, name := range x.names {
		e := x.vals[name]
		out = append(out, metric{name, e.sum / float64(e.n), e.unit})
	}
	return out
}

// usage is the process's resource counters at one instant.
type usage struct {
	cpuS               float64 // user + system CPU of every thread, GC included
	allocs, allocBytes float64 // cumulative heap allocations
	gcCycles, gcCPUS   float64
	gcPauseMS          float64
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func readUsage() usage {
	u := usage{cpuS: cpuSeconds()}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	u.allocs, u.allocBytes = val(samples[0]), val(samples[1])
	u.gcCycles, u.gcCPUS = val(samples[2]), val(samples[3])
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.gcPauseMS = float64(ms.PauseTotalNs) / 1e6
	return u
}

// rssEvery is how often rssSampler reads the resident set.
const rssEvery = 10 * time.Millisecond

// rssSampler records the process's peak resident set between calls to
// take, reading /proc/self/statm every rssEvery. The process-lifetime
// peak (VmHWM) is a single sample set by whichever moment the garbage
// collector ran late, and it spread by up to 18% between runs; the median
// over ops of each op's peak does not.
type rssSampler struct {
	f    *os.File
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	buf  [128]byte
	peak int64 // pages
}

func startRSS() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, fmt.Errorf("resident set: %w", err)
	}
	s := &rssSampler{f: f, stop: make(chan struct{}), done: make(chan struct{})}
	if s.peak, err = s.read(); err != nil {
		f.Close()
		return nil, err
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.mu.Lock()
				if cur, err := s.read(); err == nil {
					s.peak = max(s.peak, cur)
				}
				s.mu.Unlock()
			}
		}
	}()
	return s, nil
}

// read returns the resident set in pages: statm's second field. It does
// not allocate, so sampling leaves the allocation metrics alone. The
// caller holds mu.
func (s *rssSampler) read() (int64, error) {
	n, err := s.f.ReadAt(s.buf[:], 0)
	if n == 0 {
		return 0, fmt.Errorf("resident set: %v", err)
	}
	i := bytes.IndexByte(s.buf[:n], ' ')
	var pages int64
	for i++; i > 0 && i < n && '0' <= s.buf[i] && s.buf[i] <= '9'; i++ {
		pages = pages*10 + int64(s.buf[i]-'0')
	}
	if pages == 0 {
		return 0, errors.New("resident set: malformed /proc/self/statm")
	}
	return pages, nil
}

// take returns the peak resident set since the last take, in MiB, and
// starts the next peak from the current resident set.
func (s *rssSampler) take() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.read()
	if err != nil {
		return math.NaN()
	}
	peak := max(s.peak, cur)
	s.peak = cur
	return float64(peak*int64(os.Getpagesize())) / (1 << 20)
}

// close stops the sampler and waits for it to end.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
	s.f.Close()
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// minBeyond is the fewest samples that must lie above a tail quantile for
// it to be reported.
const minBeyond = 10

// tailQuantile is quantile(xs, q), reported only when at least minBeyond
// samples lie beyond it (for p90, at least 100 samples).
func tailQuantile(xs []float64, q float64) (float64, bool) {
	if float64(len(xs))*(1-q) < minBeyond-1e-9 {
		return 0, false
	}
	return quantile(xs, q), true
}

// ratio is a/b, or NaN when b is zero (which the final check reports).
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
