package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"vidperf/internal/timeline"
)

// SnapshotSchema is the wire-format version WriteSnapshot emits and
// ReadSnapshot requires.
const SnapshotSchema = 1

// Snapshot is the merged, serializable state of one streamed campaign:
// the named quantile sketches, histograms, and counters. It is the
// exchange format between cmd/vodsim -stream and cmd/analyze -snapshot.
//
// JSON encoding is deterministic: maps marshal with sorted keys and the
// sketch/histogram states are themselves deterministic, so two snapshots
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
	Windows    []timeline.Window          `json:"windows,omitempty"`
	Sketches   map[string]*QuantileSketch `json:"sketches"`
	Histograms map[string]*Histogram      `json:"histograms"`
	Counters   map[string]uint64          `json:"counters"`
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

// Histogram returns the named histogram, or nil if absent.
func (s *Snapshot) Histogram(name string) *Histogram { return s.Histograms[name] }

// Counter returns the named counter (zero if absent).
func (s *Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// WriteSnapshot serializes the snapshot as a single JSON object.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(s); err != nil {
		return fmt.Errorf("telemetry: write snapshot: %w", err)
	}
	return bw.Flush()
}

// ReadSnapshot loads a snapshot written by WriteSnapshot, rejecting
// payloads that are not schema-1 telemetry snapshots (a JSONL trace, for
// instance, fails here with a clear error instead of rendering nonsense)
// and null sketches or histograms, which WriteSnapshot never writes.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&s); err != nil {
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
	for name, h := range s.Histograms {
		if h == nil {
			return nil, fmt.Errorf("telemetry: read snapshot: histogram %q is null", name)
		}
	}
	return &s, nil
}
