package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hugeKSnapshot holds a sketch whose k no NewSketch call returns; decoding
// it once succeeded, and the first Clone, Merge or Add then panicked.
const hugeKSnapshot = `{"schema":1,"sketch_k":256,"sketches":{"dfb_ms":{"k":4611686018427387904,"n":1,"min":1,"max":1,"parity":[false],"levels":[[1]]}},"histograms":{},"counters":{}}`

func TestReadSnapshotRejectsMalformedSketches(t *testing.T) {
	for name, src := range map[string]string{
		"huge k":         hugeKSnapshot,
		"null sketch":    `{"schema":1,"sketch_k":256,"sketches":{"dfb_ms":null},"histograms":{},"counters":{}}`,
		"null histogram": `{"schema":1,"sketch_k":256,"sketches":{},"histograms":{"x":null},"counters":{}}`,
	} {
		if _, err := ReadSnapshot(strings.NewReader(src)); err == nil {
			t.Errorf("%s: snapshot read without error", name)
		}
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
	f.Add([]byte(`{"schema":1,"sketch_k":8,"sketches":{"a":{"k":8,"n":0,"min":0,"max":0}},"histograms":{"h":{"lo":0,"hi":1,"counts":[1],"n":1,"sum":0.5}},"counters":{"c":3},"windows":[{"name":"w00-x","start_ms":0,"end_ms":1}],"virtual_ms":5}`))
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
