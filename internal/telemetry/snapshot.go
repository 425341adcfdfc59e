package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"

	"vidperf/internal/timeline"
)

// SnapshotSchema is the wire-format version WriteSnapshot emits and
// ReadSnapshot requires. Schema 2 dropped the fixed-bin histograms of
// schema 1; every sketch carries the sum of its samples instead.
const SnapshotSchema = 2

// Snapshot is the merged, serializable state of one streamed campaign:
// the named quantile sketches and counters. It is the
// exchange format between cmd/vodsim -stream and cmd/analyze -snapshot.
//
// JSON encoding is deterministic: maps marshal with sorted keys and the
// sketch states are themselves deterministic, so two snapshots
// of the same campaign are byte-identical regardless of how many shards
// ran concurrently.
type Snapshot struct {
	Schema  int `json:"schema"`
	SketchK int `json:"sketch_k"`
	// VirtualMS stamps the snapshot with the virtual-clock time it covers
	// up to. Continuous service mode (internal/serve) sets it on window and
	// checkpoint snapshots; batch runs leave it zero and the field is
	// omitted, so existing snapshot bytes are unchanged.
	VirtualMS float64 `json:"virtual_ms,omitempty"`
	// Labels carries free-form provenance (spec name, cell name, seed…)
	// attached by campaign drivers. Maps marshal with sorted keys, so
	// labels do not disturb snapshot determinism; they are ignored by the
	// figure renderers and surfaced by cmd/analyze -compare.
	Labels map[string]string `json:"labels,omitempty"`
	// Windows lists the timeline windows (in time order) the windowed
	// counters and sketches key on; empty for runs without a timeline.
	Windows  []timeline.Window          `json:"windows,omitempty"`
	Sketches map[string]*QuantileSketch `json:"sketches"`
	Counters map[string]uint64          `json:"counters"`
}

// Label returns the named label ("" if absent).
func (s *Snapshot) Label(name string) string { return s.Labels[name] }

// Sketch returns the named sketch, or an empty one if the snapshot lacks
// it, so consumers can render partial snapshots without nil checks.
func (s *Snapshot) Sketch(name string) *QuantileSketch {
	if sk, ok := s.Sketches[name]; ok && sk != nil {
		return sk
	}
	return NewSketch(s.SketchK)
}

// Counter returns the named counter (zero if absent).
func (s *Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// ChunkShare returns the named counter's share of all chunks, the
// counter divided by CounterChunks: CounterChunksHit gives the cache-hit
// ratio and CounterChunksRetryTimer the retry-timer share. It is 0 for a
// snapshot without chunks.
func (s *Snapshot) ChunkShare(name string) float64 {
	chunks := s.Counter(CounterChunks)
	if chunks == 0 {
		return 0
	}
	return float64(s.Counter(name)) / float64(chunks)
}

// snapshotWire is Snapshot's JSON form, field for field, with every
// sketch held as its wire struct. WriteSnapshot and
// ReadSnapshot go through it, so encoding/json writes or reads each
// sketch inside its one pass over the snapshot; through the Marshaler
// methods every sketch's bytes are scanned again (compacted on encode,
// re-parsed on decode). TestWriteSnapshotMatchesReflectionEncode pins the
// two forms byte-equal.
type snapshotWire struct {
	Schema    int                    `json:"schema"`
	SketchK   int                    `json:"sketch_k"`
	VirtualMS float64                `json:"virtual_ms,omitempty"`
	Labels    map[string]string      `json:"labels,omitempty"`
	Windows   []timeline.Window      `json:"windows,omitempty"`
	Sketches  map[string]*sketchWire `json:"sketches"`
	Counters  map[string]uint64      `json:"counters"`
}

// WriteSnapshot serializes the snapshot as a single JSON object: the
// bytes a json.Encoder writes for s, in one encoding pass.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	sw := snapshotWire{
		Schema: s.Schema, SketchK: s.SketchK, VirtualMS: s.VirtualMS,
		Labels: s.Labels, Windows: s.Windows, Counters: s.Counters,
		Sketches: wiresOf(s.Sketches, (*QuantileSketch).wire),
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(&sw); err != nil {
		return fmt.Errorf("telemetry: write snapshot: %w", err)
	}
	return bw.Flush()
}

// ReadSnapshot loads a snapshot written by WriteSnapshot, rejecting
// payloads that are not schema-2 telemetry snapshots (a JSONL trace, for
// instance, fails here with a clear error instead of rendering nonsense),
// sketches UnmarshalJSON would reject, and null sketches, which
// WriteSnapshot never writes.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var w snapshotWire
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("telemetry: read snapshot: %w", err)
	}
	s := Snapshot{
		Schema: w.Schema, SketchK: w.SketchK, VirtualMS: w.VirtualMS,
		Labels: w.Labels, Windows: w.Windows, Counters: w.Counters,
	}
	var err error
	if s.Sketches, err = fromWires(w.Sketches, (*QuantileSketch).fromWire); err != nil {
		return nil, fmt.Errorf("telemetry: read snapshot: %w", err)
	}
	if s.Schema != SnapshotSchema {
		return nil, fmt.Errorf("telemetry: snapshot schema %d, want %d (is this a telemetry snapshot, not a trace?)",
			s.Schema, SnapshotSchema)
	}
	for name, sk := range s.Sketches {
		if sk == nil {
			return nil, fmt.Errorf("telemetry: read snapshot: sketch %q is null", name)
		}
	}
	return &s, nil
}

// wiresOf returns the wire form of every value of m. A nil value, and a
// nil map, stay nil.
func wiresOf[T, W any](m map[string]*T, wire func(*T) W) map[string]*W {
	if m == nil {
		return nil
	}
	out := make(map[string]*W, len(m))
	ws := make([]W, 0, len(m))
	for name, v := range m {
		out[name] = nil
		if v != nil {
			ws = append(ws, wire(v))
			out[name] = &ws[len(ws)-1]
		}
	}
	return out
}

// fromWires converts every wire value of m in name order and fails at the
// first that fromWire rejects. That is the one json.Unmarshal into a
// Snapshot reports through UnmarshalJSON, which stops at the first bad
// value in file order, whenever the keys are sorted as WriteSnapshot
// writes them. A nil value, and a nil map, stay nil.
func fromWires[T, W any](m map[string]*W, fromWire func(*T, *W) error) (map[string]*T, error) {
	if m == nil {
		return nil, nil
	}
	out := make(map[string]*T, len(m))
	vs := make([]T, len(m))
	for i, name := range slices.Sorted(maps.Keys(m)) {
		out[name] = nil
		if m[name] != nil {
			if err := fromWire(&vs[i], m[name]); err != nil {
				return nil, err
			}
			out[name] = &vs[i]
		}
	}
	return out, nil
}
