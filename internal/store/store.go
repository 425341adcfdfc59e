// Package store is the campaign store: an indexed, single-file archive
// of labelled telemetry snapshots that a query layer can filter, group,
// and rank without re-reading the raw snapshot files.
//
// Snapshots enter through Add / IngestSnapshotFile / IngestDir. At
// ingest time metric extraction (metrics.go) reduces each snapshot to a
// flat map of scalar metrics — counters, derived ratios, sketch
// quantiles, diagnosis cause shares — and the store keeps only
// that reduction plus the snapshot's labels. Entries are keyed by
// (sweep, cell); re-ingesting a cell replaces its entry, so ingest is
// idempotent, and the on-disk form sorts entries by key, so the store's
// bytes are identical no matter what order cells were ingested in.
//
// Each sweep additionally carries the spec content hash from its
// directory manifest (experiment.Manifest). Ingesting a directory whose
// manifest hash disagrees with the sweep's recorded hash is refused, so
// cells from incompatible spec configurations never silently share a
// league table.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vidperf/internal/atomicfile"
	"vidperf/internal/experiment"
	"vidperf/internal/telemetry"
)

// Schema is the store wire-format version Write emits and Load
// requires.
const Schema = 1

// Entry is one ingested snapshot, reduced to its labels and extracted
// scalar metrics.
type Entry struct {
	// Sweep is the campaign name the snapshot was ingested under.
	Sweep string `json:"sweep"`
	// Cell names the snapshot inside its sweep (the snapshot's "cell"
	// label, or the file's base name for loose snapshots).
	Cell string `json:"cell"`
	// Labels is the snapshot's label set verbatim (spec, cell, seed,
	// diagnosis, axis:<name>, …).
	Labels map[string]string `json:"labels,omitempty"`
	// Metrics is the extracted reduction of the snapshot (metrics.go).
	Metrics map[string]float64 `json:"metrics"`
}

// Key is the entry's unique identity inside the store.
func (e *Entry) Key() string { return e.Sweep + "/" + e.Cell }

// SweepMeta records per-sweep provenance.
type SweepMeta struct {
	// Spec is the generating spec's name ("" for sweeps built from loose
	// snapshots without a manifest).
	Spec string `json:"spec,omitempty"`
	// SpecHash is the spec content hash from the sweep directory's
	// manifest ("" for loose snapshots). Two ingests into one sweep must
	// agree on it when both have one.
	SpecHash string `json:"spec_hash,omitempty"`
	// Baseline names the sweep's baseline cell when known.
	Baseline string `json:"baseline,omitempty"`
}

// Store is the in-memory campaign store. The zero value is empty and
// ready to use.
type Store struct {
	sweeps  map[string]SweepMeta
	entries map[string]Entry // by Entry.Key()
}

// fileFormat is the serialized store: sweeps and entries only, with
// entries in key order.
type fileFormat struct {
	Schema  int                  `json:"schema"`
	Sweeps  map[string]SweepMeta `json:"sweeps,omitempty"`
	Entries []Entry              `json:"entries"`
}

// New returns an empty store.
func New() *Store { return &Store{} }

func (s *Store) init() {
	if s.sweeps == nil {
		s.sweeps = make(map[string]SweepMeta)
	}
	if s.entries == nil {
		s.entries = make(map[string]Entry)
	}
}

// Len reports how many entries the store holds.
func (s *Store) Len() int { return len(s.entries) }

// Sweeps lists the sweep names in the store, sorted.
func (s *Store) Sweeps() []string {
	out := make([]string, 0, len(s.sweeps))
	for name := range s.sweeps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Sweep returns a sweep's provenance record.
func (s *Store) Sweep(name string) (SweepMeta, bool) {
	m, ok := s.sweeps[name]
	return m, ok
}

// Entries returns the sweep's entries in cell-key order ("" selects
// every sweep). The slice is a copy; mutating it does not touch the
// store.
func (s *Store) Entries(sweep string) []Entry {
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		if sweep == "" || e.Sweep == sweep {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// claimSweep records (or re-checks) a sweep's provenance. A sweep
// already ingested from a different spec content is refused; loose
// ingests (empty meta fields) never conflict and never erase recorded
// provenance.
func (s *Store) claimSweep(name string, meta SweepMeta) error {
	s.init()
	prev, ok := s.sweeps[name]
	if !ok {
		s.sweeps[name] = meta
		return nil
	}
	if prev.SpecHash != "" && meta.SpecHash != "" && prev.SpecHash != meta.SpecHash {
		return fmt.Errorf("store: sweep %q already holds spec %q (hash %.12s…); refusing to mix in spec %q (hash %.12s…) — ingest under a different sweep name",
			name, prev.Spec, prev.SpecHash, meta.Spec, meta.SpecHash)
	}
	if prev.SpecHash == "" && meta.SpecHash != "" {
		s.sweeps[name] = meta
	}
	return nil
}

// Add ingests one snapshot under sweep/cell, replacing any previous
// entry with the same key.
func (s *Store) Add(sweep, cell string, sn *telemetry.Snapshot) error {
	if sweep == "" || cell == "" {
		return fmt.Errorf("store: Add requires a sweep and cell name (got %q/%q)", sweep, cell)
	}
	if err := s.claimSweep(sweep, SweepMeta{Spec: sn.Label("spec")}); err != nil {
		return err
	}
	labels := make(map[string]string, len(sn.Labels))
	for k, v := range sn.Labels {
		labels[k] = v
	}
	e := Entry{Sweep: sweep, Cell: cell, Labels: labels, Metrics: extract(sn)}
	s.entries[e.Key()] = e
	return nil
}

// IngestSnapshotFile ingests one snapshot file. The cell name is the
// snapshot's "cell" label, falling back to the file's base name without
// extension, so loose snapshots (vodsim -stream output, serve
// checkpoints) ingest without a manifest.
func (s *Store) IngestSnapshotFile(sweep, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	sn, err := telemetry.ReadSnapshot(f)
	if err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	cell := sn.Label("cell")
	if cell == "" {
		base := filepath.Base(path)
		cell = strings.TrimSuffix(base, filepath.Ext(base))
	}
	return s.Add(sweep, cell, sn)
}

// IngestDir ingests every cell of a sweep directory written by
// experiment.RunCampaign, driven by its manifest.json: the manifest
// supplies the cell list and the spec content hash the sweep is claimed
// under. It returns how many cells were ingested. A directory whose
// manifest hash conflicts with the sweep's recorded provenance is
// refused before any cell is read.
func (s *Store) IngestDir(sweep, dir string) (int, error) {
	m, err := experiment.ReadManifestFile(dir)
	if err != nil {
		return 0, fmt.Errorf("store: ingest %s: %w (run sweep -out to produce a manifest)", dir, err)
	}
	if err := s.claimSweep(sweep, SweepMeta{Spec: m.Spec, SpecHash: m.SpecHash, Baseline: m.Baseline}); err != nil {
		return 0, err
	}
	for _, c := range m.Cells {
		f, err := os.Open(filepath.Join(dir, c.File))
		if err != nil {
			return 0, fmt.Errorf("store: ingest %s: %w", dir, err)
		}
		sn, err := telemetry.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return 0, fmt.Errorf("store: ingest %s: %w", filepath.Join(dir, c.File), err)
		}
		if err := s.Add(sweep, c.Name, sn); err != nil {
			return 0, err
		}
	}
	return len(m.Cells), nil
}

// Write serializes the store. Entries are emitted in key order and maps
// marshal with sorted keys, so the bytes depend only on the store's
// content — never on ingest order.
func (s *Store) Write(w io.Writer) error {
	ff := fileFormat{Schema: Schema, Entries: s.Entries("")}
	if len(s.sweeps) > 0 {
		ff.Sweeps = s.sweeps
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(&ff); err != nil {
		return fmt.Errorf("store: write: %w", err)
	}
	return bw.Flush()
}

// Save writes the store to path atomically (internal/atomicfile), so a
// crash mid-save never leaves a truncated store behind.
func (s *Store) Save(path string) error {
	return atomicfile.Write(path, func(f *os.File) error { return s.Write(f) })
}

// Load reads a store written by Write, rejecting other schemas.
func Load(r io.Reader) (*Store, error) {
	var ff fileFormat
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&ff); err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	if ff.Schema != Schema {
		return nil, fmt.Errorf("store: schema %d, want %d", ff.Schema, Schema)
	}
	s := New()
	s.init()
	for name, meta := range ff.Sweeps {
		s.sweeps[name] = meta
	}
	for _, e := range ff.Entries {
		s.entries[e.Key()] = e
	}
	return s, nil
}

// Open loads the store at path; a missing file yields an empty store,
// so "ingest into a new store" and "ingest into an existing one" are
// the same command.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return New(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
