package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vidperf/internal/diagnose"
)

// hugeKSnapshot holds a sketch whose k no NewSketch call returns; decoding
// it once succeeded, and the first Clone, Merge or Add then panicked.
const hugeKSnapshot = `{"schema":2,"sketch_k":256,"sketches":{"dfb_ms":{"k":4611686018427387904,"n":1,"min":1,"max":1,"parity":[false],"levels":[[1]]}},"counters":{}}`

// schema1Snapshot is a valid snapshot in the format before schema 2, with
// the fixed-bin histograms that schema dropped.
const schema1Snapshot = `{"schema":1,"sketch_k":8,"sketches":{"a":{"k":8,"n":1,"min":1,"max":1,"parity":[false],"levels":[[1]]}},"histograms":{"h":{"lo":0,"hi":1,"counts":[1],"n":1,"sum":0.5}},"counters":{"c":3}}`

func TestReadSnapshotRejectsMalformedSketches(t *testing.T) {
	for name, src := range map[string]string{
		"huge k":      hugeKSnapshot,
		"null sketch": `{"schema":2,"sketch_k":256,"sketches":{"dfb_ms":null},"counters":{}}`,
	} {
		if _, err := ReadSnapshot(strings.NewReader(src)); err == nil {
			t.Errorf("%s: snapshot read without error", name)
		}
	}
	if _, err := ReadSnapshot(strings.NewReader(schema1Snapshot)); err == nil ||
		!strings.Contains(err.Error(), "snapshot schema 1, want 2") {
		t.Errorf("schema-1 snapshot: error %v, want the schema error", err)
	}
}

// FuzzReadSnapshot: ReadSnapshot returns an error or a snapshot whose
// sketches survive Clone, a Merge into an empty sketch and Quantile, and
// that writes back to bytes a second read and write reproduce exactly.
//
// testdata/vodsim-snapshot.json seeds it with a real snapshot, written by
//
//	go run ./cmd/vodsim -stream -diagnose -sessions 40 -prefixes 20 -videos 60 -sketch-k 8 -out snap.json
func FuzzReadSnapshot(f *testing.F) {
	real, err := os.ReadFile(filepath.Join("testdata", "vodsim-snapshot.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add([]byte(hugeKSnapshot))
	f.Add([]byte(schema1Snapshot))
	f.Add([]byte(`{"schema":2,"sketch_k":8,"sketches":{"a":{"k":8,"n":0,"min":0,"max":0},"b":{"k":8,"n":1,"min":1,"max":1,"sum":1,"parity":[false],"levels":[[1]]}},"counters":{"c":3},"windows":[{"name":"w00-x","start_ms":0,"end_ms":1}],"virtual_ms":5}`))
	f.Add([]byte(`{"session_id":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, sk := range sn.Sketches {
			sk.Clone()
			NewSketch(sk.K()).Merge(sk)
			sk.Quantile(0.5)
		}
		var w1, w2 bytes.Buffer
		if err := WriteSnapshot(&w1, sn); err != nil {
			t.Fatalf("accepted snapshot does not write: %v", err)
		}
		back, err := ReadSnapshot(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("written snapshot does not read back: %v\n%s", err, w1.Bytes())
		}
		if err := WriteSnapshot(&w2, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write → read → write is not a fixed point:\n%s\n%s", w1.Bytes(), w2.Bytes())
		}
	})
}

// readTestdataSnapshot returns the bytes and the decoded form of
// testdata/vodsim-snapshot.json.
func readTestdataSnapshot(t *testing.T) ([]byte, *Snapshot) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "vodsim-snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := ReadSnapshot(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return b, sn
}

// allFamiliesSnapshot folds 300 varied sessions through an accumulator
// with diagnosis, windows, live and proxy all on, and labels the result,
// so every snapshot field is set and the sketches hold several levels.
func allFamiliesSnapshot() *Snapshot {
	a := NewAccumulatorWith(Config{
		SketchK: 16, Diagnose: &diagnose.Config{}, Windows: testWindows(),
		Live: true, Proxy: true,
	})
	s, chunks := foldSession()
	for i := 0; i < 300; i++ {
		s.SessionID = uint64(i)
		s.ArrivalMS = float64(i * 10)
		s.StartupMS = 200 + float64(i%37)*53
		s.Live, s.Proxied = i%3 != 0, i%4 == 0
		for j := range chunks {
			chunks[j].SessionID = s.SessionID
			chunks[j].DFBms = 20 + float64((i*7+j*13)%101)
		}
		a.ConsumeSession(s, chunks)
	}
	sn := a.snapshot()
	sn.Labels = map[string]string{"cell": "all<families>", "seed": "7"}
	sn.VirtualMS = 3000
	return sn
}

// TestWriteSnapshotMatchesReflectionEncode: WriteSnapshot, which encodes
// each sketch straight from its wire struct, writes the bytes a
// json.Encoder writes for the *Snapshot through the sketches' MarshalJSON
// methods; and ReadSnapshot then WriteSnapshot reproduces a written file.
func TestWriteSnapshotMatchesReflectionEncode(t *testing.T) {
	file, real := readTestdataSnapshot(t)
	if got := snapshotBytesOf(t, real); !bytes.Equal(got, file) {
		t.Fatalf("testdata snapshot does not write back byte-identical:\n%s", got)
	}
	full := allFamiliesSnapshot()
	if len(full.Windows) == 0 || full.Sketch(MetricJoinTimeMS).N() == 0 ||
		full.Sketch(MetricSRTTCVProxied).N() == 0 || !hasKeyWith(full, "_"+DiagDim+"=") {
		t.Fatal("allFamiliesSnapshot lacks a family")
	}
	withNils := allFamiliesSnapshot()
	withNils.Sketches["nil"] = nil
	for name, sn := range map[string]*Snapshot{
		"vodsim testdata": real,
		"all families":    full,
		"nil entries":     withNils,
		"nil maps":        {Schema: SnapshotSchema},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(sn); err != nil {
			t.Fatal(err)
		}
		got := snapshotBytesOf(t, sn)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: WriteSnapshot differs from the reflection encode:\n got %s\nwant %s", name, got, want.Bytes())
		}
		if name == "all families" {
			back, err := ReadSnapshot(bytes.NewReader(got))
			if err != nil {
				t.Fatal(err)
			}
			if again := snapshotBytesOf(t, back); !bytes.Equal(again, got) {
				t.Errorf("%s: read → write is not byte-identical", name)
			}
		}
	}
}

// TestReadSnapshotReportsFirstBadValue: of several sketches
// UnmarshalJSON rejects, ReadSnapshot reports the one a decode through
// that method met first, in key order, with the same message.
func TestReadSnapshotReportsFirstBadValue(t *testing.T) {
	const (
		badK   = `{"k":6,"n":1,"min":1,"max":1,"parity":[false],"levels":[[1]]}`
		badN   = `{"k":8,"n":5,"min":1,"max":1,"parity":[false],"levels":[[1]]}`
		badSum = `{"k":8,"n":0,"min":0,"max":0,"sum":2}`
	)
	for _, tc := range []struct{ sketches, want string }{
		{`"a":` + badK + `,"b":` + badN,
			"telemetry: read snapshot: telemetry: sketch k=6, want an even value in [8, 65536]"},
		{`"a":` + badN + `,"b":` + badK,
			"telemetry: read snapshot: telemetry: sketch levels hold weight 1, want n=5"},
		{`"g":` + badSum + `,"h":` + badK,
			"telemetry: read snapshot: telemetry: empty sketch has sum 2"},
	} {
		src := `{"schema":2,"sketch_k":8,"sketches":{` + tc.sketches + `},"counters":{}}`
		_, err := ReadSnapshot(strings.NewReader(src))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s:\n got %v\nwant %s", src, err, tc.want)
			continue
		}
		var viaMethods Snapshot
		if err := json.Unmarshal([]byte(src), &viaMethods); err == nil || "telemetry: read snapshot: "+err.Error() != tc.want {
			t.Errorf("%s: the UnmarshalJSON path reports %v", src, err)
		}
	}
}

// TestChunkShare: a counter's share of all chunks, and 0 without chunks
// rather than a NaN from 0/0.
func TestChunkShare(t *testing.T) {
	sn := &Snapshot{Counters: map[string]uint64{
		CounterChunks: 8, CounterChunksHit: 6, CounterChunksRetryTimer: 3,
	}}
	if got := sn.ChunkShare(CounterChunksHit); got != 0.75 {
		t.Errorf("hit share = %v, want 0.75", got)
	}
	if got := sn.ChunkShare(CounterChunksRetryTimer); got != 0.375 {
		t.Errorf("retry-timer share = %v, want 0.375", got)
	}
	for _, empty := range []*Snapshot{{Counters: map[string]uint64{CounterChunksHit: 6}}, {}} {
		if got := empty.ChunkShare(CounterChunksHit); got != 0 {
			t.Errorf("share without chunks (counters %v) = %v, want 0", empty.Counters, got)
		}
	}
}
