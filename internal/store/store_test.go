package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vidperf/internal/experiment"
	"vidperf/internal/telemetry"
)

// snap builds a minimal labelled snapshot for store tests.
func snap(labels map[string]string, counters map[string]uint64, sketches map[string][]float64) *telemetry.Snapshot {
	sn := &telemetry.Snapshot{
		Schema:   telemetry.SnapshotSchema,
		SketchK:  64,
		Labels:   labels,
		Sketches: make(map[string]*telemetry.QuantileSketch),
		Counters: counters,
	}
	for name, vals := range sketches {
		sk := telemetry.NewSketch(64)
		for _, v := range vals {
			sk.Add(v)
		}
		sn.Sketches[name] = sk
	}
	return sn
}

// sweepDir runs a tiny two-cell campaign into a temp dir and returns
// the dir and its manifest.
func sweepDir(t *testing.T, sessions int) (string, *experiment.Manifest) {
	t.Helper()
	sp, err := experiment.Load(strings.NewReader(`{
		"name": "store-test",
		"scenario": {"seed": 5, "sessions": ` + strconv.Itoa(sessions) + `, "prefixes": 40, "videos": 200},
		"axes": [{"name": "cold", "values": [false, true]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := experiment.RunCampaign(sp, experiment.RunOptions{OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	m, err := experiment.ReadManifestFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, m
}

func mustCreate(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestAddIdempotent: re-adding the same cell replaces its entry rather
// than duplicating it, and the resulting bytes are unchanged.
func TestAddIdempotent(t *testing.T) {
	s := New()
	sn := snap(map[string]string{"cell": "a"}, map[string]uint64{"sessions": 10, "chunks": 100, "chunks_hit": 90}, nil)
	if err := s.Add("sw", "a", sn); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := s.Write(&first); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("sw", "a", sn); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d entries after duplicate Add, want 1", s.Len())
	}
	var second bytes.Buffer
	if err := s.Write(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("re-ingesting an identical snapshot changed the store bytes")
	}
}

// TestIngestOrderIndependentBytes: a manifest-driven ingest and a
// cell-by-cell ingest in reverse order produce byte-identical stores.
func TestIngestOrderIndependentBytes(t *testing.T) {
	dir, m := sweepDir(t, 60)

	forward := New()
	n, err := forward.IngestDir("sw", dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(m.Cells) {
		t.Fatalf("ingested %d cells, manifest lists %d", n, len(m.Cells))
	}

	reverse := New()
	if err := reverse.claimSweep("sw", SweepMeta{Spec: m.Spec, SpecHash: m.SpecHash, Baseline: m.Baseline}); err != nil {
		t.Fatal(err)
	}
	for i := len(m.Cells) - 1; i >= 0; i-- {
		if err := reverse.IngestSnapshotFile("sw", filepath.Join(dir, m.Cells[i].File)); err != nil {
			t.Fatal(err)
		}
	}

	var a, b bytes.Buffer
	if err := forward.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := reverse.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("store bytes depend on ingest order")
	}

	// And the ranked query output matches too.
	q := Query{Sweep: "sw", GroupBy: "cold", Rank: "hit_ratio"}
	ra, err := forward.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := reverse.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) || len(ra) == 0 {
		t.Fatalf("query rows differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("row %d differs across ingest orders: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

// TestIngestDirRefusesMixedSpecs: one sweep name cannot hold cells
// from two different spec contents.
func TestIngestDirRefusesMixedSpecs(t *testing.T) {
	dirA, _ := sweepDir(t, 60)
	dirB, _ := sweepDir(t, 80)

	s := New()
	if _, err := s.IngestDir("sw", dirA); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestDir("sw", dirB); err == nil {
		t.Fatal("ingesting a different spec under the same sweep name was allowed")
	} else if !strings.Contains(err.Error(), "refusing to mix") {
		t.Fatalf("unexpected refusal error: %v", err)
	}
	// The same directory re-ingests fine (idempotent), and a different
	// spec is fine under its own sweep name.
	if _, err := s.IngestDir("sw", dirA); err != nil {
		t.Fatalf("re-ingesting the same spec was refused: %v", err)
	}
	if _, err := s.IngestDir("sw2", dirB); err != nil {
		t.Fatalf("ingesting under a fresh sweep name was refused: %v", err)
	}
}

// TestSaveOpenRoundTrip: Save then Open reproduces the store exactly;
// Open on a missing path yields an empty store.
func TestSaveOpenRoundTrip(t *testing.T) {
	dir, _ := sweepDir(t, 60)
	s := New()
	if _, err := s.IngestDir("sw", dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaigns.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := s.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Save/Open round-trip changed the store bytes")
	}
	meta, ok := got.Sweep("sw")
	if !ok || meta.SpecHash == "" || meta.Spec != "store-test" {
		t.Fatalf("round-trip lost sweep provenance: %+v ok=%v", meta, ok)
	}

	empty, err := Open(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatalf("Open of a missing path is not empty: %d entries", empty.Len())
	}
}

// TestIngestSnapshotFileLooseCell: a snapshot without a cell label
// falls back to the file's base name.
func TestIngestSnapshotFileLooseCell(t *testing.T) {
	dir := t.TempDir()
	sn := snap(nil, map[string]uint64{"sessions": 4, "chunks": 20, "chunks_hit": 10}, nil)
	path := filepath.Join(dir, "night-run.json")
	f := mustCreate(t, path)
	if err := telemetry.WriteSnapshot(f, sn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := New()
	if err := s.IngestSnapshotFile("ops", path); err != nil {
		t.Fatal(err)
	}
	es := s.Entries("ops")
	if len(es) != 1 || es[0].Cell != "night-run" {
		t.Fatalf("loose snapshot entries = %+v, want one cell night-run", es)
	}
}

// TestBaselineSweepIngestsToCommittedStore: ingesting ci/baseline-sweep
// as sweep "fresh" writes testdata/zipf-sweep-store.json byte for byte,
// which pins every bit of the read path: snapshot decode, quantile
// extraction and the store's encoding.
func TestBaselineSweepIngestsToCommittedStore(t *testing.T) {
	s := New()
	if _, err := s.IngestDir("fresh", filepath.Join("..", "..", "ci", "baseline-sweep")); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := s.Write(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "zipf-sweep-store.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("store ingested from ci/baseline-sweep differs from testdata/zipf-sweep-store.json:\n%s", got.Bytes())
	}
}

// FuzzStoreLoad feeds Load arbitrary bytes. Load must return an error
// rather than panic, and a store it accepts must write bytes that load
// back into a store writing the same bytes (Load → Write → Load is a
// fixed point). The seed is a store ingested from a small zipf-sweep
// run, as the CI store smoke builds it.
func FuzzStoreLoad(f *testing.F) {
	real, err := os.ReadFile(filepath.Join("testdata", "zipf-sweep-store.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add([]byte(`{"schema":1,"entries":[{"sweep":"a/b","cell":"c","metrics":{"x":-0}},{"sweep":"a","cell":"b/c"},null]}`))
	f.Add([]byte(`{"schema":2,"entries":[]}`))
	f.Add([]byte(`{"schema":1,"sweeps":{"s":{}},"entries":null} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var w1, w2 bytes.Buffer
		if err := s.Write(&w1); err != nil {
			t.Fatalf("loaded store does not write: %v", err)
		}
		back, err := Load(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("written store does not load back: %v\n%s", err, w1.Bytes())
		}
		if err := back.Write(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("Load → Write → Load is not a fixed point:\n%s\nvs\n%s", w1.Bytes(), w2.Bytes())
		}
	})
}
