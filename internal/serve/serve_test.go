package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/serve"
	"vidperf/internal/session"
	"vidperf/internal/telemetry"
	"vidperf/internal/timeline"
	"vidperf/internal/workload"
)

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testScenario(seed uint64, par int) workload.Scenario {
	return workload.Scenario{
		Seed:        seed,
		NumSessions: 300,
		NumPrefixes: 150,
		Catalog:     catalog.Config{NumVideos: 800},
		Parallelism: par,
	}
}

func testConfig(seed uint64, par int) serve.Config {
	return serve.Config{
		Scenario:          testScenario(seed, par),
		SessionsPerWindow: 120,
		WindowMS:          60000,
		SketchK:           64,
	}
}

// runEngine builds an engine, runs it to MaxWindows, and returns it.
func runEngine(t *testing.T, cfg serve.Config) *serve.Engine {
	t.Helper()
	eng, err := serve.NewEngine(cfg, quietLog())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return eng
}

func engineSnapshotBytes(t *testing.T, eng *serve.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// TestOneWindowMatchesBatchRun pins the anchor of the serve determinism
// contract: window 0 runs at the base seed with offset 0, so a one-window
// serve run's cumulative snapshot is byte-identical to the equivalent
// batch `vodsim -stream` campaign.
func TestOneWindowMatchesBatchRun(t *testing.T) {
	cfg := testConfig(11, 1)
	cfg.MaxWindows = 1
	eng := runEngine(t, cfg)

	sc := testScenario(11, 1)
	sc.NumSessions = cfg.SessionsPerWindow
	sc.ArrivalWindowMS = cfg.WindowMS
	res, err := session.Execute(sc, session.Options{Telemetry: true, SketchK: cfg.SketchK})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	sn := res.Snapshot
	var batch bytes.Buffer
	if err := telemetry.WriteSnapshot(&batch, sn); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if got := engineSnapshotBytes(t, eng); !bytes.Equal(got, batch.Bytes()) {
		t.Fatalf("one-window serve snapshot differs from batch run (%d vs %d bytes)",
			len(got), batch.Len())
	}
}

// TestServeParallelismByteIdentical extends the repo's core determinism
// invariant to serve mode: the cumulative snapshot after several windows
// is byte-identical at any Scenario.Parallelism.
func TestServeParallelismByteIdentical(t *testing.T) {
	build := func(par int) []byte {
		cfg := testConfig(23, par)
		cfg.MaxWindows = 3
		return engineSnapshotBytes(t, runEngine(t, cfg))
	}
	seq := build(1)
	for _, par := range []int{2, 8} {
		if got := build(par); !bytes.Equal(seq, got) {
			t.Fatalf("Parallelism=%d serve snapshot differs from sequential (%d vs %d bytes)",
				par, len(got), len(seq))
		}
	}
}

// TestCheckpointResumeByteIdentical is the checkpoint/resume contract: a
// run checkpointed after window 2 and resumed to window 4 produces a
// cumulative snapshot (and ring) byte-identical to the uninterrupted
// 4-window run — including when the resumed process uses a different
// parallelism.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	refCfg := testConfig(31, 1)
	refCfg.MaxWindows = 4
	ref := runEngine(t, refCfg)
	refBytes := engineSnapshotBytes(t, ref)
	refRing := windowsBody(t, ref)

	ckptPath := filepath.Join(t.TempDir(), "serve.ckpt")
	firstCfg := testConfig(31, 1)
	firstCfg.MaxWindows = 2
	firstCfg.CheckpointPath = ckptPath
	runEngine(t, firstCfg) // Run writes a final checkpoint on exit.

	ck, err := serve.LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if ck.WindowsDone != 2 {
		t.Fatalf("checkpoint covers %d windows, want 2", ck.WindowsDone)
	}
	for _, par := range []int{1, 4} {
		resumed, err := serve.ResumeEngine(ck, serve.Runtime{
			CheckpointPath: ckptPath,
			MaxWindows:     4,
			Parallelism:    par,
		}, quietLog())
		if err != nil {
			t.Fatalf("ResumeEngine(par=%d): %v", par, err)
		}
		if err := resumed.Run(context.Background()); err != nil {
			t.Fatalf("resumed Run(par=%d): %v", par, err)
		}
		if got := engineSnapshotBytes(t, resumed); !bytes.Equal(got, refBytes) {
			t.Fatalf("resumed snapshot (par=%d) differs from uninterrupted run (%d vs %d bytes)",
				par, len(got), len(refBytes))
		}
		if got := windowsBody(t, resumed); !bytes.Equal(got, refRing) {
			t.Fatalf("resumed /windows body (par=%d) differs from uninterrupted run", par)
		}
	}
}

// TestCheckpointRoundTripsThroughJSON: the file the engine writes loads
// back into an identical checkpoint — re-marshalling changes nothing.
func TestCheckpointRoundTripsThroughJSON(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "serve.ckpt")
	cfg := testConfig(47, 0)
	cfg.MaxWindows = 2
	cfg.CheckpointPath = ckptPath
	cfg.CheckpointEveryWindows = 1
	runEngine(t, cfg)

	ck, err := serve.LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if ck.VirtualMS != 2*cfg.WindowMS {
		t.Fatalf("checkpoint VirtualMS = %g, want %g", ck.VirtualMS, 2*cfg.WindowMS)
	}
	if len(ck.Ring) != 2 {
		t.Fatalf("checkpoint ring holds %d windows, want 2", len(ck.Ring))
	}
	resumed, err := serve.ResumeEngine(ck, serve.Runtime{CheckpointPath: ckptPath}, quietLog())
	if err != nil {
		t.Fatalf("ResumeEngine: %v", err)
	}
	if resumed.WindowsDone() != 2 || resumed.VirtualMS() != ck.VirtualMS {
		t.Fatalf("resumed engine at window %d / %gms, want 2 / %gms",
			resumed.WindowsDone(), resumed.VirtualMS(), ck.VirtualMS)
	}
	// The checkpoint's config carries the interval, not the path: a
	// resume with no path to write to fails like a fresh start.
	if _, err := serve.ResumeEngine(ck, serve.Runtime{CheckpointEveryWindows: 1}, quietLog()); err == nil {
		t.Fatal("ResumeEngine accepted a checkpoint interval with no path")
	}
}

// TestWindowSeed: window 0 is the base seed (the batch-equivalence
// anchor); later windows get distinct, deterministic seeds.
func TestWindowSeed(t *testing.T) {
	if got := serve.WindowSeed(99, 0); got != 99 {
		t.Fatalf("WindowSeed(99, 0) = %d, want the base seed", got)
	}
	seen := map[uint64]int{99: 0}
	for idx := 1; idx <= 1000; idx++ {
		s := serve.WindowSeed(99, idx)
		if prev, dup := seen[s]; dup {
			t.Fatalf("WindowSeed(99, %d) collides with window %d", idx, prev)
		}
		seen[s] = idx
		if s != serve.WindowSeed(99, idx) {
			t.Fatalf("WindowSeed(99, %d) is not deterministic", idx)
		}
	}
}

// TestConfigValidation: the engine refuses configurations that would
// break the serve determinism contract.
func TestConfigValidation(t *testing.T) {
	cfg := testConfig(1, 0)
	cfg.Scenario.ArrivalOffsetMS = 5
	if _, err := serve.NewEngine(cfg, quietLog()); err == nil {
		t.Fatal("NewEngine accepted a non-zero ArrivalOffsetMS")
	}
	cfg = testConfig(1, 0)
	cfg.Scenario.Timeline = timeline.Timeline{Phases: []timeline.Phase{
		{Name: "outage", StartMS: 0, EndMS: 1000},
	}}
	if _, err := serve.NewEngine(cfg, quietLog()); err == nil {
		t.Fatal("NewEngine accepted a scenario timeline")
	}
	cfg = testConfig(1, 0)
	cfg.Scenario.ABRName = "no-such-abr"
	if _, err := serve.NewEngine(cfg, quietLog()); err == nil {
		t.Fatal("NewEngine accepted an unknown ABR")
	}
	// Periodic checkpoints with nowhere to write them fail at start, not
	// when the first one is due. Validate accepts them: a spec's serve
	// block is checked before a command supplies the path.
	cfg = testConfig(1, 0)
	cfg.CheckpointEveryWindows = 2
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate refused a checkpoint interval without a path: %v", err)
	}
	if _, err := serve.NewEngine(cfg, quietLog()); err == nil || !strings.Contains(err.Error(), "no CheckpointPath") {
		t.Fatalf("NewEngine with a checkpoint interval and no path: error %v", err)
	}
	// An out-of-range scenario knob fails at construction, not inside
	// the first window that builds a population.
	cfg = testConfig(1, 0)
	cfg.Scenario.NumPrefixes = -3
	if _, err := serve.NewEngine(cfg, quietLog()); err == nil || !strings.Contains(err.Error(), "prefixes") {
		t.Fatalf("NewEngine with -3 prefixes: error %v", err)
	}
}

// TestConfigRejectsNonFiniteTimes: a NaN or infinite window length or
// pace would run every window at a NaN or infinite virtual time.
func TestConfigRejectsNonFiniteTimes(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := testConfig(1, 0)
		cfg.WindowMS = v
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "WindowMS") {
			t.Errorf("WindowMS %g: error %v", v, err)
		}
		cfg = testConfig(1, 0)
		cfg.Pace = v
		if _, err := serve.NewEngine(cfg, quietLog()); err == nil || !strings.Contains(err.Error(), "Pace") {
			t.Errorf("Pace %g: error %v", v, err)
		}
	}
}

// TestReadCheckpointRejectsCorruptState: schema and shape violations are
// load-time errors, not silent divergence later.
func TestReadCheckpointRejectsCorruptState(t *testing.T) {
	for name, body := range map[string]string{
		"bad schema":     `{"schema": 5, "config": {}, "windows_done": 0}`,
		"missing fold":   `{"schema": 4, "config": {}, "windows_done": 3}`,
		"negative count": `{"schema": 4, "config": {}, "windows_done": -1}`,
		"oversized ring": `{"schema": 4, "config": {}, "windows_done": 0, "ring": [{"index": 0}]}`,
		"not a document": `]`,
	} {
		if _, err := serve.ReadCheckpoint(bytes.NewReader([]byte(body))); err == nil {
			t.Errorf("ReadCheckpoint accepted %s", name)
		}
	}
}

// TestResumeRefusesBadCheckpoints: a checkpoint whose keys, trailing
// bytes, schema or values the engine did not write fails at load or at
// ResumeEngine, before any window runs: a renamed or unknown key would
// otherwise leave its field at the default, and a resumed run would fold
// another scenario's windows into the old run's snapshot.
func TestResumeRefusesBadCheckpoints(t *testing.T) {
	real, err := os.ReadFile(filepath.Join("testdata", "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) []byte {
		t.Helper()
		if !bytes.Contains(real, []byte(old)) {
			t.Fatalf("testdata/checkpoint.json has no %s", old)
		}
		return bytes.Replace(real, []byte(old), []byte(new), 1)
	}
	// Schema 3 held schema-1 snapshots: sketches without a sum, and
	// fixed-bin histograms (left empty here).
	schema3 := regexp.MustCompile(`"sum":[-+.0-9eE]+,`).ReplaceAll(real, nil)
	for _, e := range [][2]string{
		{`{"schema":4,`, `{"schema":3,`},
		{`{"schema":2,"sketch_k"`, `{"schema":1,"sketch_k"`},
		{`,"counters":`, `,"histograms":{},"counters":`},
	} {
		if !bytes.Contains(schema3, []byte(e[0])) {
			t.Fatalf("testdata/checkpoint.json has no %s", e[0])
		}
		schema3 = bytes.ReplaceAll(schema3, []byte(e[0]), []byte(e[1]))
	}
	// Schema 2 also stored the calibration values as config fields: the
	// backend block, the CDN's and catalog's parameters and FPS.
	schema2 := schema3
	for _, e := range [][2]string{
		{`{"schema":3,`, `{"schema":2,`},
		{`"ChunkDuration":0,`, `"ChunkDuration":0,"DurationMedian":0,"DurationSigma":0,`},
		{`"OpenRetryMS":0,`, `"OpenRetryMS":0,"RAMReadMedianMS":0,"DiskSeekMedianMS":0,"DiskReadMBps":0,"OpenMedianMS":0,`},
		{`"PinFirstChunks":false},`, `"PinFirstChunks":false},"Backend":{"WANRTTms":0,"ServiceMedianMS":0,"ServiceSigma":0,"SlowProb":0,"SlowPenaltyMS":0},`},
		{`"MaxBufferSec":0,`, `"MaxBufferSec":0,"FPS":0,`},
	} {
		if !bytes.Contains(schema2, []byte(e[0])) {
			t.Fatalf("testdata/checkpoint.json has no %s", e[0])
		}
		schema2 = bytes.Replace(schema2, []byte(e[0]), []byte(e[1]), 1)
	}
	// Schema 1 also spelled the live and proxy blocks with Go field names.
	schema1 := bytes.Replace(bytes.Replace(schema2, []byte(`{"schema":2,`), []byte(`{"schema":1,`), 1),
		[]byte(`"Live":{"channels":0}`),
		[]byte(`"Live":{"Channels":0,"ChunkDurationSec":0,"SwitchPerMin":0,"JoinDist":"","JoinZipfS":0,"JoinBehindChunks":0}`), 1)
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"renamed key", `unknown field "NumPrefixez"`, edit(`"NumPrefixes":150`, `"NumPrefixez":150`)},
		{"unknown key", `unknown field "note"`, edit(`{"schema":4,`, `{"schema":4,"note":"x",`)},
		{"removed calibration key", `unknown field "FPS"`, edit(`"MaxBufferSec":0,`, `"MaxBufferSec":0,"FPS":0,`)},
		{"trailing data", "trailing data", append(append([]byte(nil), real...), "{}\n"...)},
		{"schema 3", "without -resume", schema3},
		{"schema 3, current keys", "without -resume", edit(`{"schema":4,`, `{"schema":3,`)},
		{"schema 2", "without -resume", schema2},
		{"schema 1", "without -resume", schema1},
		{"out-of-range value", "prefixes -3", edit(`"NumPrefixes":150`, `"NumPrefixes":-3`)},
	} {
		ck, err := serve.ReadCheckpoint(bytes.NewReader(c.data))
		if err == nil {
			_, err = serve.ResumeEngine(ck, serve.Runtime{}, quietLog())
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestResumeRejectsMismatchedFold: a checkpoint whose fold has another
// sketch k than its config fails at resume instead of panicking when the
// first resumed window merges into the fold.
func TestResumeRejectsMismatchedFold(t *testing.T) {
	real, err := os.ReadFile(filepath.Join("testdata", "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := serve.ReadCheckpoint(bytes.NewReader(real))
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if _, err := serve.ResumeEngine(ck, serve.Runtime{}, quietLog()); err != nil {
		t.Fatalf("ResumeEngine on the seed checkpoint: %v", err)
	}
	ck.Config.SketchK = 32
	if _, err := serve.ResumeEngine(ck, serve.Runtime{}, quietLog()); err == nil {
		t.Fatal("ResumeEngine accepted a k=64 fold under a k=32 config")
	}
}

// FuzzReadCheckpoint: no input makes ReadCheckpoint or ResumeEngine
// panic, and whatever ReadCheckpoint accepts re-marshals to a fixed
// point. The first seed is the checkpoint TestCheckpointRoundTripsThroughJSON
// writes (seed 47, two windows); the last two are a schema-3 checkpoint
// and that file with a renamed key, which the decoder refuses.
func FuzzReadCheckpoint(f *testing.F) {
	real, err := os.ReadFile(filepath.Join("testdata", "checkpoint.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add([]byte(`{"schema":4,"config":{},"windows_done":1,"cumulative":{"schema":2,"sketch_k":64,"sketches":{"x":null},"counters":{}}}`))
	f.Add([]byte(`{"schema":4,"config":{"Scenario":{"ABRName":"nope"}},"windows_done":0}`))
	f.Add([]byte(`{"schema":3,"config":{},"windows_done":1,"cumulative":{"schema":1,"sketch_k":64,"sketches":{},"histograms":{},"counters":{}}}`))
	f.Add(bytes.Replace(real, []byte(`"NumPrefixes"`), []byte(`"NumPrefixez"`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := serve.ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Either outcome is fine here; a panic is not. The engine does no
		// work before Run, so this covers validation and the fold's copy.
		_, _ = serve.ResumeEngine(ck, serve.Runtime{}, quietLog())
		b1, err := json.Marshal(ck)
		if err != nil {
			t.Fatalf("decoded checkpoint does not marshal: %v", err)
		}
		back, err := serve.ReadCheckpoint(bytes.NewReader(b1))
		if err != nil {
			t.Fatalf("marshalled checkpoint does not decode: %v\n%s", err, b1)
		}
		b2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("ReadCheckpoint → marshal is not a fixed point:\n%s\nvs\n%s", b1, b2)
		}
	})
}
