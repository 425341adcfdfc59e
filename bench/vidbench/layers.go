// layers.go holds every call vidbench makes into the simulator's
// packages, so a reshape of their APIs touches this file alone. The ops
// use the public entry points the CLIs use (experiment.RunCell, the serve
// engine, session.Execute, the JSONL codec, proxydetect.Detect,
// figures.All, the store). The traced replays time each layer from
// outside: by wrapping the record sinks session.Execute accepts, and by
// calling the layers Execute runs internally again, one at a time.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"vidperf/internal/abr"
	"vidperf/internal/cache"
	"vidperf/internal/catalog"
	"vidperf/internal/cdn"
	"vidperf/internal/core"
	"vidperf/internal/diagnose"
	"vidperf/internal/experiment"
	"vidperf/internal/figures"
	"vidperf/internal/player"
	"vidperf/internal/proxydetect"
	"vidperf/internal/serve"
	"vidperf/internal/session"
	"vidperf/internal/stats"
	"vidperf/internal/store"
	"vidperf/internal/tcpmodel"
	"vidperf/internal/telemetry"
	"vidperf/internal/timeline"
	"vidperf/internal/workload"
)

// clientProbeSessions is how many planned sessions of a workload's op 0
// the tcpmodel, player and ABR probes replay.
const clientProbeSessions = 2000

// abrSink keeps the ABR probe's results live, so its timed calls cannot
// be optimized away.
var abrSink int

// opSeed is op i's scenario seed: the run seed folded with the workload
// name and op index, the same derivation sweeps use for per-cell seeds.
func opSeed(seed uint64, workload string, i int) uint64 {
	return experiment.DeriveSeed(seed, workload+"/"+strconv.Itoa(i))
}

// benchSpec is one workload spec file, strictly decoded and expanded to
// its single cell.
type benchSpec struct {
	spec *experiment.Spec
	cell experiment.Cell
}

// specDir holds the workload spec files, relative to the repository root
// the benchmark runs from.
const specDir = "bench/specs"

// loadSpec reads specDir/file.json. A spec must expand to exactly one
// cell and carry a serve block exactly when wantServe is set.
func loadSpec(file string, wantServe bool) (*benchSpec, error) {
	sp, err := experiment.LoadFile(filepath.Join(specDir, file+".json"))
	if err != nil {
		return nil, err
	}
	cells, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	if len(cells) != 1 {
		return nil, fmt.Errorf("spec %s expands to %d cells, want 1", sp.Name, len(cells))
	}
	switch {
	case wantServe && (sp.Serve == nil || sp.Serve.Pace != 0):
		return nil, fmt.Errorf("spec %s needs a serve block with pace 0", sp.Name)
	case !wantServe && sp.Serve != nil:
		return nil, fmt.Errorf("spec %s has a serve block; only serve-windows runs one", sp.Name)
	}
	return &benchSpec{spec: sp, cell: cells[0]}, nil
}

// at returns the spec's cell with the given seed and parallelism.
func (b *benchSpec) at(seed uint64, parallel int) experiment.Cell {
	c := b.cell
	c.Scenario.Seed = seed
	c.Scenario.Parallelism = parallel
	return c
}

// sessions is the number of sessions one run of the cell requests.
func (b *benchSpec) sessions() uint64 {
	return uint64(b.cell.Scenario.WithDefaults().NumSessions)
}

// snapshotOutput summarizes a telemetry snapshot as an op output.
func snapshotOutput(sn *telemetry.Snapshot, want uint64, data []byte) opOutput {
	return opOutput{
		want:     want,
		sessions: sn.Counter(telemetry.CounterSessions),
		chunks:   sn.Counter(telemetry.CounterChunks),
		data:     data,
		labels:   sn.Labels,
	}
}

// datasetOutput summarizes a materialized dataset as an op output.
func datasetOutput(ds *core.Dataset, want uint64, data []byte) opOutput {
	return opOutput{
		want:     want,
		sessions: uint64(len(ds.Sessions)),
		chunks:   uint64(len(ds.Chunks)),
		data:     data,
	}
}

// countSnapshot adds a traced op's chunks, cache hits and retry-timer
// firings from its snapshot's counters.
func countSnapshot(t *layerTotals, sn *telemetry.Snapshot) {
	t.chunks += float64(sn.Counter(telemetry.CounterChunks))
	t.hits += float64(sn.Counter(telemetry.CounterChunksHit))
	t.retries += float64(sn.Counter(telemetry.CounterChunksRetryTimer))
}

// cellStore is the campaign store feature-sweep ingests every cell into.
type cellStore struct {
	st   *store.Store
	path string
}

func newCellStore(path string) *cellStore {
	return &cellStore{st: store.New(), path: path}
}

// runCellOp is one vod-stream or feature-sweep op: experiment.RunCell
// writes the cell's labelled snapshot into dir and, with cs set, the
// snapshot is ingested into the store, which is saved (the sweep -out,
// analyze ingest path).
func runCellOp(b *benchSpec, cell experiment.Cell, dir string, cs *cellStore) (opOutput, error) {
	res, err := experiment.RunCell(b.spec, cell, dir)
	if err != nil {
		return opOutput{}, err
	}
	if cs != nil {
		if err := cs.st.IngestSnapshotFile(b.spec.Name, res.Path); err != nil {
			return opOutput{}, err
		}
		if err := cs.st.Save(cs.path); err != nil {
			return opOutput{}, err
		}
	}
	data, err := os.ReadFile(res.Path)
	if err != nil {
		return opOutput{}, err
	}
	return snapshotOutput(res.Snapshot, b.sessions(), data), nil
}

// runTraceOp is one trace-analyze op: a dataset-mode campaign written as
// a JSONL trace, read back, run through the §3 proxy detector and every
// figure (the vodsim -out, analyze trace path). The output data is the
// trace as written.
func runTraceOp(b *benchSpec, cell experiment.Cell) (opOutput, error) {
	res, err := session.Execute(cell.Scenario, session.Options{})
	if err != nil {
		return opOutput{}, err
	}
	var buf bytes.Buffer
	if err := core.WriteJSONL(&buf, res.Dataset); err != nil {
		return opOutput{}, err
	}
	ds, err := core.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return opOutput{}, err
	}
	verdicts := proxydetect.Detect(ds.Sessions, proxydetect.Config{})
	figures.All(ds, cell.Scenario.WithDefaults().Catalog.NumVideos)
	out := datasetOutput(ds, b.sessions(), buf.Bytes())
	if len(verdicts) != len(ds.Sessions) {
		out.err = fmt.Errorf("detector returned %d verdicts for %d sessions", len(verdicts), len(ds.Sessions))
	}
	return out, nil
}

// traceRoundTrip checks that a JSONL trace decodes and re-encodes to the
// same bytes.
func traceRoundTrip(data []byte) error {
	ds, err := core.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		return err
	}
	var again bytes.Buffer
	if err := core.WriteJSONL(&again, ds); err != nil {
		return err
	}
	if !bytes.Equal(again.Bytes(), data) {
		return fmt.Errorf("JSONL trace changed on write, read, write (%d vs %d bytes)", len(data), again.Len())
	}
	return nil
}

// serveConfig is the engine configuration the serve-windows spec
// describes, the way vodsim serve -spec builds it, at the given serve
// seed and parallelism.
func serveConfig(b *benchSpec, seed uint64, parallel int) serve.Config {
	sv := b.spec.Serve
	sc := b.at(seed, parallel).Scenario
	return serve.Config{
		Scenario:               sc,
		SessionsPerWindow:      sv.SessionsPerWindow,
		WindowMS:               sv.WindowMS(),
		Ring:                   sv.Ring,
		SketchK:                b.spec.SketchK,
		Diagnose:               b.spec.Diagnosis,
		CheckpointEveryWindows: sv.CheckpointEveryWindows,
	}
}

// windowHook is the log handler vidbench gives serve engines. The engine
// logs one "window closed" record per window, synchronously on the
// goroutine running Engine.Run; that record is the outside boundary a
// window op is timed at, and its attributes carry the window's counts.
type windowHook func(sessions, chunks uint64)

func (h windowHook) Enabled(context.Context, slog.Level) bool { return true }

func (h windowHook) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "window closed" {
		return nil
	}
	var sessions, chunks uint64
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "sessions":
			sessions = a.Value.Uint64()
		case "chunks":
			chunks = a.Value.Uint64()
		}
		return true
	})
	h(sessions, chunks)
	return nil
}

func (h windowHook) WithAttrs([]slog.Attr) slog.Handler { return h }

func (h windowHook) WithGroup(string) slog.Handler { return h }

// engine is a serve engine that has finished running.
type engine struct{ e *serve.Engine }

// runEngine runs a serve engine until cfg.MaxWindows windows have closed
// or onWindow returns false. With from set, the engine resumes from that
// checkpoint file instead of starting at window 0.
func runEngine(cfg serve.Config, from string, onWindow func(sessions, chunks uint64) bool) (*engine, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := slog.New(windowHook(func(sessions, chunks uint64) {
		if !onWindow(sessions, chunks) {
			cancel()
		}
	}))
	var e *serve.Engine
	var err error
	if from == "" {
		e, err = serve.NewEngine(cfg, log)
	} else {
		var ck *serve.Checkpoint
		if ck, err = serve.LoadCheckpoint(from); err != nil {
			return nil, err
		}
		e, err = serve.ResumeEngine(ck, serve.Runtime{
			CheckpointPath:         cfg.CheckpointPath,
			CheckpointEveryWindows: cfg.CheckpointEveryWindows,
			MaxWindows:             cfg.MaxWindows,
			Parallelism:            cfg.Scenario.Parallelism,
		}, log)
	}
	if err != nil {
		return nil, err
	}
	if err := e.Run(ctx); err != nil {
		return nil, err
	}
	return &engine{e}, nil
}

// snapshot is the engine's cumulative snapshot, as GET /snapshot serves it.
func (g *engine) snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := g.e.WriteSnapshot(&buf)
	return buf.Bytes(), err
}

// checkpointTotals reads a checkpoint file and returns its window count
// and cumulative session count.
func checkpointTotals(path string) (windows int, sessions uint64, err error) {
	ck, err := serve.LoadCheckpoint(path)
	if err != nil {
		return 0, 0, err
	}
	if ck.Cumulative == nil {
		return ck.WindowsDone, 0, nil
	}
	return ck.WindowsDone, ck.Cumulative.Counter(telemetry.CounterSessions), nil
}

// timedSink forwards a shard's records to inner and adds the time spent
// in ConsumeSession to ns. The runner offers shard sizes to sinks that
// implement core.RecordReserver, so the reservation is forwarded too.
type timedSink struct {
	inner  core.RecordSink
	ns     *atomic.Int64
	chunks *atomic.Int64
}

func (s timedSink) ConsumeSession(rec core.SessionRecord, chunks []core.ChunkRecord) {
	t0 := time.Now()
	s.inner.ConsumeSession(rec, chunks)
	s.ns.Add(int64(time.Since(t0)))
	s.chunks.Add(int64(len(chunks)))
}

func (s timedSink) ReserveRecords(sessions, chunks int) {
	if r, ok := s.inner.(core.RecordReserver); ok {
		r.ReserveRecords(sessions, chunks)
	}
}

// sinkTimer wraps every shard sink of one Execute call.
type sinkTimer struct{ ns, chunks atomic.Int64 }

func (st *sinkTimer) wrap(factory session.SinkFactory) session.SinkFactory {
	return func(popID int) core.RecordSink {
		return timedSink{inner: factory(popID), ns: &st.ns, chunks: &st.chunks}
	}
}

// campaignConfig is the telemetry configuration session.Execute builds
// for a telemetry-mode run of sc under spec b: report windows from the
// timeline unless given, and the live and proxy modes from the scenario.
func campaignConfig(b *benchSpec, sc workload.Scenario, windows []timeline.Window) telemetry.Config {
	eff := sc.WithDefaults()
	if windows == nil {
		windows = eff.Timeline.Windows(eff.ArrivalWindowMS)
	}
	cfg := telemetry.Config{
		SketchK: b.spec.SketchK,
		Windows: windows,
		Live:    eff.Live.Enabled(),
		Proxy:   eff.Proxy.Enabled(),
	}
	if b.spec.Diagnosis {
		cfg.Diagnose = &diagnose.Config{}
	}
	return cfg
}

// since returns the milliseconds elapsed since t0.
func since(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// traceLayers times the layers session.Execute runs before and around
// its event loops by calling each again from outside on sc:
// workload.Build, Population.PartitionBySlot, and cdn.NewSlotFleet plus
// session.WarmPoP for every non-empty (PoP, slot) shard. Each warmed
// server then replays its shard's planned chunk keys through its cache.
// With clientProbe set, the per-chunk client layers are probed too.
func traceLayers(sc workload.Scenario, t *layerTotals, clientProbe bool) {
	t0 := time.Now()
	pop := workload.Build(sc)
	t.buildMS += since(t0)
	eff := pop.Scenario
	cfg := eff.Fleet.WithDefaults()
	t0 = time.Now()
	parts, _ := pop.PartitionBySlot(cfg)
	t.partitionMS += since(t0)
	rung := probeRung(pop.Catalog)
	for bucket, refs := range parts {
		if len(refs) == 0 {
			continue
		}
		t.shards++
		popID, slot := bucket/cfg.ServersPerPoP, bucket%cfg.ServersPerPoP
		t0 = time.Now()
		fleet := cdn.NewSlotFleet(eff.Fleet, eff.Seed, popID, slot)
		t.fleetMS += since(t0)
		if !eff.ColdStart {
			t0 = time.Now()
			session.WarmPoP(fleet, pop.Catalog, popID)
			t.warmMS += since(t0)
		}
		probeCache(pop, fleet.PoPServers(popID)[slot].Cache(), refs, rung, t)
	}
	if clientProbe {
		probeClient(pop, rung, t)
	}
}

// probeRung is the ladder rung the probes request: the middle of the
// ladder, a rung warm caches hold for every title they hold.
func probeRung(cat *catalog.Catalog) int { return cat.Bitrates[len(cat.Bitrates)/2] }

// probeCache looks up every planned chunk of one shard's sessions in the
// shard's cache, admitting misses as a backend fill would.
func probeCache(pop *workload.Population, ml *cache.MultiLevel, refs []workload.SessionRef, rung int, t *layerTotals) {
	var keys []uint64
	var sizes []int64
	for _, ref := range refs {
		plan := pop.PlanSession(ref.ID)
		for c := 0; c < plan.WatchChunks; c++ {
			idx := plan.LiveJoinChunk + c
			keys = append(keys, catalog.ChunkKey(plan.Video.ID, idx, rung))
			sizes = append(sizes, catalog.ChunkSizeBytes(rung, pop.Catalog.ChunkDurationSec(plan.Video, idx)))
		}
	}
	hits := 0
	t0 := time.Now()
	for i, key := range keys {
		if ml.Lookup(key, sizes[i]) == cache.LevelMiss {
			ml.Insert(key, sizes[i])
		} else {
			hits++
		}
	}
	t.lookupNS += since(t0) * 1e6
	t.lookups += float64(len(keys))
	t.lookupHits += float64(hits)
}

// probeClient times the per-chunk client layers on the first planned
// sessions: tcpmodel transfers, player buffer steps and ABR decisions.
// Each layer runs in its own loop over inputs the loop before it
// recorded, so one layer's time never includes another's.
func probeClient(pop *workload.Population, rung int, t *layerTotals) {
	sc := pop.Scenario
	n := min(clientProbeSessions, sc.NumSessions)
	plans := make([]workload.SessionPlan, n)
	var total int
	for i := range plans {
		plans[i] = pop.PlanSession(uint64(i + 1))
		total += plans[i].WatchChunks
	}
	size := make([]int64, 0, total)
	dur := make([]float64, 0, total)
	for i := range plans {
		for c := 0; c < plans[i].WatchChunks; c++ {
			d := pop.Catalog.ChunkDurationSec(plans[i].Video, plans[i].LiveJoinChunk+c)
			dur = append(dur, d)
			size = append(size, catalog.ChunkSizeBytes(rung, d))
		}
	}

	// One connection per session, one transfer per planned chunk.
	fetchMS := make([]float64, total)
	t0 := time.Now()
	k := 0
	for i := range plans {
		conn := tcpmodel.New(plans[i].PathParams, stats.NewRand(sc.Seed^plans[i].ID))
		for c := 0; c < plans[i].WatchChunks; c++ {
			tr := conn.Transfer(size[k])
			fetchMS[k] = tr.RTT0ms + tr.LastByteMS
			k++
		}
	}
	t.tcpNS += since(t0) * 1e6
	t.tcpCalls += float64(total)

	// The player downloads back to back, idling at the buffer high-water
	// mark as the session runner does.
	buffer := make([]float64, total)
	t0 = time.Now()
	k = 0
	for i := range plans {
		p := player.New(sc.StartThresholdSec)
		now := 0.0
		for c := 0; c < plans[i].WatchChunks; c++ {
			now += fetchMS[k]
			p.AdvanceTo(now)
			p.OnChunkDownloaded(now, dur[k])
			buffer[k] = p.BufferSec()
			if over := buffer[k] - sc.MaxBufferSec; over > 0 {
				now += over * 1000
			}
			k++
		}
	}
	t.playerNS += since(t0) * 1e6
	t.playerCalls += float64(total)

	// ABR decisions see the buffer and throughput the loops above produced.
	ctxs := make([]abr.Context, 0, total)
	k = 0
	for i := range plans {
		est := abr.NewEstimator(0.3)
		last, buf := 0.0, 0.0
		for c := 0; c < plans[i].WatchChunks; c++ {
			ctxs = append(ctxs, abr.Context{
				Ladder: pop.Catalog.Bitrates, ChunkIndex: c, BufferSec: buf,
				LastChunkKbps: last, SmoothedKbps: est.Kbps(),
			})
			if fetchMS[k] > 0 {
				last = float64(size[k]) * 8 / fetchMS[k]
				est.Observe(last)
			}
			buf = buffer[k]
			k++
		}
	}
	algo, err := session.NewABR(sc.ABRName)
	if err != nil {
		return
	}
	t0 = time.Now()
	for i := range ctxs {
		abrSink += algo.Next(ctxs[i])
	}
	t.abrNS += since(t0) * 1e6
	t.abrCalls += float64(len(ctxs))
}

// tracedTelemetry is session.Execute in custom-sink mode over the sinks
// of the telemetry campaign telemetry-mode Execute would build, with
// every ConsumeSession timed; the campaign's merge is timed separately.
func tracedTelemetry(b *benchSpec, sc workload.Scenario, windows []timeline.Window, t *layerTotals) (*telemetry.Snapshot, error) {
	camp := telemetry.NewCampaignWith(campaignConfig(b, sc, windows))
	var st sinkTimer
	t0 := time.Now()
	if _, err := session.Execute(sc, session.Options{Sinks: st.wrap(camp.Sink)}); err != nil {
		return nil, err
	}
	t.executeMS += since(t0)
	t.sinkMS += float64(st.ns.Load()) / 1e6
	t.foldMS += float64(st.ns.Load()) / 1e6
	t.foldChunks += float64(st.chunks.Load())
	t0 = time.Now()
	sn := camp.Snapshot()
	t.mergeMS += since(t0)
	return sn, nil
}

// encodeSnapshot times telemetry.WriteSnapshot into path and returns the
// bytes written.
func encodeSnapshot(sn *telemetry.Snapshot, path string, t *layerTotals) ([]byte, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := telemetry.WriteSnapshot(&buf, sn); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	t.encodeMS += since(t0)
	t.snapshotKB += float64(buf.Len()) / 1024
	return buf.Bytes(), nil
}

// probeSnapshot times decoding a snapshot file and ingesting it into a
// fresh campaign store, then the store's encoding and a ranked query.
func probeSnapshot(data []byte, path string, t *layerTotals) error {
	t0 := time.Now()
	if _, err := telemetry.ReadSnapshot(bytes.NewReader(data)); err != nil {
		return err
	}
	t.decodeMS += since(t0)
	st := store.New()
	t0 = time.Now()
	if err := st.IngestSnapshotFile("vidbench", path); err != nil {
		return err
	}
	t.ingestMS += since(t0)
	t0 = time.Now()
	if err := st.Write(&bytes.Buffer{}); err != nil {
		return err
	}
	t.writeMS += since(t0)
	t0 = time.Now()
	if _, err := st.Query(store.Query{Rank: store.QuantileMetric(telemetry.MetricStartupMS, 0.95)}); err != nil {
		return err
	}
	t.queryMS += since(t0)
	return nil
}

// traceCellOp replays one vod-stream or feature-sweep op with its layers
// timed. The traced snapshot takes the untimed op's labels, which
// RunCell derives from the spec and cell alone, so its bytes must equal
// the untimed op's. The returned wall time covers the op's own calls.
func traceCellOp(b *benchSpec, cell experiment.Cell, labels map[string]string, dir string, cs *cellStore, t *layerTotals, clientProbe bool) (opOutput, float64, error) {
	traceLayers(cell.Scenario, t, clientProbe)
	t0 := time.Now()
	sn, err := tracedTelemetry(b, cell.Scenario, nil, t)
	if err != nil {
		return opOutput{}, 0, err
	}
	sn.Labels = labels
	path := filepath.Join(dir, cell.FileName())
	data, err := encodeSnapshot(sn, path, t)
	if err != nil {
		return opOutput{}, 0, err
	}
	if cs != nil {
		if err := cs.st.IngestSnapshotFile(b.spec.Name, path); err != nil {
			return opOutput{}, 0, err
		}
		if err := cs.st.Save(cs.path); err != nil {
			return opOutput{}, 0, err
		}
	}
	wall := since(t0)
	countSnapshot(t, sn)
	return snapshotOutput(sn, b.sessions(), data), wall, probeSnapshot(data, path, t)
}

// traceDatasetOp replays one trace-analyze op with its layers timed: the
// collecting sinks, the dataset's materialization, the JSONL codec, the
// detector and the figures. trace-analyze folds no telemetry, so the
// telemetry and store layers are probed on a fold of the op's records,
// outside the op's wall time.
func traceDatasetOp(b *benchSpec, cell experiment.Cell, dir string, t *layerTotals, clientProbe bool) (opOutput, float64, error) {
	sc := cell.Scenario
	traceLayers(sc, t, clientProbe)
	wall := time.Now()
	var col core.SpanCollector
	var st sinkTimer
	t0 := time.Now()
	factory := func(int) core.RecordSink { return col.NewSink() }
	if _, err := session.Execute(sc, session.Options{Sinks: st.wrap(factory)}); err != nil {
		return opOutput{}, 0, err
	}
	t.executeMS += since(t0)
	collectMS := float64(st.ns.Load()) / 1e6
	t.sinkMS += collectMS
	t.extra.add("core.collect_ms", collectMS, "ms")
	t0 = time.Now()
	ds := col.Dataset()
	t.extra.add("core.materialize_ms", since(t0), "ms")
	var buf bytes.Buffer
	t0 = time.Now()
	if err := core.WriteJSONL(&buf, ds); err != nil {
		return opOutput{}, 0, err
	}
	t.extra.add("core.jsonl_write_ms", since(t0), "ms")
	t.extra.add("core.trace_mb", float64(buf.Len())/(1<<20), "MB")
	t0 = time.Now()
	read, err := core.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return opOutput{}, 0, err
	}
	t.extra.add("core.jsonl_read_ms", since(t0), "ms")
	t0 = time.Now()
	verdicts := proxydetect.Detect(read.Sessions, proxydetect.Config{})
	t.extra.add("proxydetect.detect_ms", since(t0), "ms")
	t0 = time.Now()
	figs := figures.All(read, sc.WithDefaults().Catalog.NumVideos)
	t.extra.add("figures.all_ms", since(t0), "ms")
	wallMS := since(wall)
	pass := 0
	for _, f := range figs {
		if f.Pass {
			pass++
		}
	}
	t.extra.add("figures.pass", float64(pass), "count")
	out := datasetOutput(read, b.sessions(), buf.Bytes())
	if len(verdicts) != len(read.Sessions) {
		out.err = fmt.Errorf("detector returned %d verdicts for %d sessions", len(verdicts), len(read.Sessions))
	}
	for i := range read.Chunks {
		if read.Chunks[i].CacheHit {
			t.hits++
		}
		if read.Chunks[i].RetryTimer {
			t.retries++
		}
	}
	t.chunks += float64(len(read.Chunks))

	// The fold probe: the op's records through the accumulator telemetry
	// mode would use, one session at a time.
	camp := telemetry.NewCampaignWith(campaignConfig(b, sc, nil))
	sink := camp.Sink(0)
	t0 = time.Now()
	for i, j := 0, 0; i < len(read.Sessions); i++ {
		k := j
		for k < len(read.Chunks) && read.Chunks[k].SessionID == read.Sessions[i].SessionID {
			k++
		}
		sink.ConsumeSession(read.Sessions[i], read.Chunks[j:k])
		j = k
	}
	t.foldMS += since(t0)
	t.foldChunks += float64(len(read.Chunks))
	t0 = time.Now()
	sn := camp.Snapshot()
	t.mergeMS += since(t0)
	path := filepath.Join(dir, "fold.json")
	data, err := encodeSnapshot(sn, path, t)
	if err != nil {
		return opOutput{}, 0, err
	}
	return out, wallMS, probeSnapshot(data, path, t)
}

// traceServe replays the first windows of a serve engine with its layers
// timed. Each window is the batch sub-campaign the engine runs (the
// window's derived seed, its offset on the virtual clock, one report
// window) through tracedTelemetry, folded into a cumulative snapshot and
// a ring as the engine publishes them, with the engine's checkpoints
// encoded and decoded on its schedule. A reference engine runs the same
// windows untimed: the checkpoint it writes at exit (config, fold and
// ring) must equal the replay's byte for byte, and its /metrics and
// /snapshot endpoints are timed. onWindow receives each replayed window's
// output and wall time.
func traceServe(b *benchSpec, seed uint64, windows int, dir string, t *layerTotals, onWindow func(opOutput, float64)) error {
	cfg := serveConfig(b, seed, 1)
	cfg.MaxWindows = windows
	cfg.CheckpointPath = filepath.Join(dir, "trace-reference.ckpt")
	ref, err := runEngine(cfg, "", func(uint64, uint64) bool { return true })
	if err != nil {
		return err
	}
	h := ref.e.Handler()
	for _, ep := range []struct{ path, metric string }{{"/metrics", "serve.metrics_scrape_ms"}, {"/snapshot", "serve.snapshot_get_ms"}} {
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, ep.path, nil))
		t.extra.add(ep.metric, since(t0), "ms")
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", ep.path, rec.Code)
		}
	}

	eff := ref.e.Config()
	var cum *telemetry.Snapshot
	var ring []serve.WindowResult
	var virtualMS, foldMS, ckptEncMS, ckptDecMS, ckptKB float64
	var ckpts int
	for idx := 0; idx < windows; idx++ {
		sc := eff.Scenario
		sc.Seed = serve.WindowSeed(eff.Scenario.Seed, idx)
		sc.NumSessions = eff.SessionsPerWindow
		sc.ArrivalWindowMS = eff.WindowMS
		sc.ArrivalOffsetMS = float64(idx) * eff.WindowMS
		w := timeline.Window{Name: serve.WindowName(idx), StartMS: sc.ArrivalOffsetMS, EndMS: sc.ArrivalOffsetMS + eff.WindowMS}
		traceLayers(sc, t, idx == 0)
		t0 := time.Now()
		sn, err := tracedTelemetry(b, sc, []timeline.Window{w}, t)
		if err != nil {
			return err
		}
		sn.VirtualMS = w.EndMS
		virtualMS = w.EndMS
		ring = append(ring, serve.WindowResult{Index: idx, Window: w, Snapshot: sn})
		if len(ring) > eff.Ring {
			ring = ring[len(ring)-eff.Ring:]
		}
		f0 := time.Now()
		if cum, err = telemetry.MergeSnapshots(cum, telemetry.WithoutWindows(sn)); err != nil {
			return err
		}
		foldMS += since(f0)
		if every := eff.CheckpointEveryWindows; every > 0 && (idx+1)%every == 0 {
			c0 := time.Now()
			buf, err := json.Marshal(serve.Checkpoint{
				Schema: serve.CheckpointSchema, Config: eff, WindowsDone: idx + 1,
				VirtualMS: w.EndMS, Cumulative: cum, Ring: ring,
			})
			if err != nil {
				return err
			}
			ckptEncMS += since(c0)
			c0 = time.Now()
			if _, err := serve.ReadCheckpoint(bytes.NewReader(buf)); err != nil {
				return err
			}
			ckptDecMS += since(c0)
			ckptKB += float64(len(buf)) / 1024
			ckpts++
		}
		wall := since(t0)
		countSnapshot(t, sn)
		path := filepath.Join(dir, "window.json")
		data, err := encodeSnapshot(sn, path, t)
		if err != nil {
			return err
		}
		if err := probeSnapshot(data, path, t); err != nil {
			return err
		}
		onWindow(snapshotOutput(sn, uint64(eff.SessionsPerWindow), nil), wall)
	}
	t.extra.add("serve.fold_ms", foldMS/float64(windows), "ms")
	if ckpts > 0 {
		t.extra.add("serve.checkpoint_encode_ms", ckptEncMS/float64(ckpts), "ms")
		t.extra.add("serve.checkpoint_decode_ms", ckptDecMS/float64(ckpts), "ms")
		t.extra.add("serve.checkpoint_kb", ckptKB/float64(ckpts), "KB")
	}
	got, err := json.Marshal(serve.Checkpoint{
		Schema: serve.CheckpointSchema, Config: eff, WindowsDone: windows,
		VirtualMS: virtualMS, Cumulative: cum, Ring: ring,
	})
	if err != nil {
		return err
	}
	want, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		return err
	}
	if !bytes.Equal(append(got, '\n'), want) {
		return fmt.Errorf("traced serve replay of %d windows differs from the untimed engine's checkpoint", windows)
	}
	return nil
}
