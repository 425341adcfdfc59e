// manifest.go records a sweep directory's provenance: which spec (by
// name and content hash) generated the cell snapshots, which cells exist
// under which file names and seeds, and the reporting configuration.
// cmd/sweep writes it next to the snapshots; internal/store requires it
// to ingest a directory in one command and to refuse mixing cells from
// different specs under one sweep name.
package experiment

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vidperf/internal/atomicfile"
)

// ManifestSchema is the manifest wire-format version WriteManifest emits
// and ReadManifest requires. It is independent of the spec and snapshot
// schemas.
const ManifestSchema = 1

// ManifestFileName is the fixed file name a sweep directory's manifest
// is written under.
const ManifestFileName = "manifest.json"

// ManifestCell is one cell's provenance entry: its grid name, snapshot
// file name, and fully-resolved scenario seed.
type ManifestCell struct {
	Name string `json:"name"`
	File string `json:"file"`
	Seed uint64 `json:"seed"`
	// Axes maps axis name to the rendered value (empty for the axis-less
	// "base" cell).
	Axes map[string]string `json:"axes,omitempty"`
}

// Manifest is the sweep directory's provenance record.
type Manifest struct {
	Schema int `json:"schema"`
	// Spec is the generating spec's name (the snapshots' "spec" label).
	Spec string `json:"spec"`
	// SpecHash fingerprints the effective spec content (overrides like
	// sweep -sessions included): two sweeps mix in one store only when
	// their hashes agree, so cells from incompatible configurations never
	// silently land in one league table.
	SpecHash string `json:"spec_hash"`
	// SketchK and Diagnosis echo the reporting configuration every cell
	// ran with.
	SketchK   int  `json:"sketch_k"`
	Diagnosis bool `json:"diagnosis,omitempty"`
	// Baseline names the spec's baseline cell.
	Baseline string `json:"baseline"`
	// Cells lists every cell in grid order.
	Cells []ManifestCell `json:"cells"`
}

// Hash fingerprints the spec's effective content: the SHA-256 of its
// canonical JSON form. Struct fields marshal in declaration order and
// maps with sorted keys, so the hash is a pure function of the spec's
// content — the same spec hashes identically across runs, processes,
// and machines, and any override (a different session count, a toggled
// diagnosis flag) changes it.
func (s *Spec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// A Spec is plain data (strings, numbers, raw JSON); Marshal
		// cannot fail on one that Load produced.
		panic(fmt.Sprintf("experiment: marshal spec %s: %v", s.Name, err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// BuildManifest assembles the manifest for a spec and its expanded
// cells.
func BuildManifest(spec *Spec, cells []Cell) *Manifest {
	m := &Manifest{
		Schema:    ManifestSchema,
		Spec:      spec.Name,
		SpecHash:  spec.Hash(),
		SketchK:   spec.EffectiveSketchK(),
		Diagnosis: spec.Diagnosis,
		Baseline:  spec.Baseline,
		Cells:     make([]ManifestCell, len(cells)),
	}
	if m.Baseline == "" && len(cells) > 0 {
		m.Baseline = cells[spec.BaselineIndex(cells)].Name
	}
	for i, c := range cells {
		m.Cells[i] = ManifestCell{
			Name: c.Name,
			File: c.FileName(),
			Seed: c.Scenario.Seed,
			Axes: c.Axes,
		}
	}
	return m
}

// WriteManifest serializes the manifest as a single JSON object.
func WriteManifest(w io.Writer, m *Manifest) error {
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(m); err != nil {
		return fmt.Errorf("experiment: write manifest: %w", err)
	}
	return bw.Flush()
}

// ReadManifest loads a manifest written by WriteManifest, rejecting
// payloads of any other schema.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&m); err != nil {
		return nil, fmt.Errorf("experiment: read manifest: %w", err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("experiment: manifest schema %d, want %d", m.Schema, ManifestSchema)
	}
	return &m, nil
}

// ReadManifestFile is ReadManifest on dir/ManifestFileName.
func ReadManifestFile(dir string) (*Manifest, error) {
	f, err := os.Open(filepath.Join(dir, ManifestFileName))
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	defer f.Close()
	m, err := ReadManifest(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(dir, ManifestFileName), err)
	}
	return m, nil
}

// claimOutDir guards a sweep output directory against silent
// cross-spec overwrites: a directory already holding a manifest from a
// different spec content is refused, while re-running the identical
// spec (same hash) into its own directory remains legal. On success the
// manifest is written up front, so even a partially-failed campaign
// leaves its provenance on disk, and atomically, so a campaign killed
// mid-write leaves the previous manifest rather than a truncated one.
func claimOutDir(dir string, m *Manifest) error {
	path := filepath.Join(dir, ManifestFileName)
	if f, err := os.Open(path); err == nil {
		prev, rerr := ReadManifest(f)
		f.Close()
		if rerr != nil {
			return fmt.Errorf("experiment: %s exists but is unreadable (%v); refusing to overwrite a directory of unknown provenance", path, rerr)
		}
		if prev.SpecHash != m.SpecHash {
			return fmt.Errorf("experiment: %s already holds sweep %q (spec hash %.12s…); refusing to overwrite it with spec %q (hash %.12s…) — use a fresh -out directory",
				dir, prev.Spec, prev.SpecHash, m.Spec, m.SpecHash)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("experiment: %w", err)
	}
	return atomicfile.Write(path, func(f *os.File) error { return WriteManifest(f, m) })
}
