package experiment

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vidperf/internal/atomicfile"
)

// manifestSpec is a tiny two-cell spec for manifest tests.
func manifestSpec(t *testing.T) *Spec {
	t.Helper()
	sp, err := Load(strings.NewReader(`{
		"name": "manifest-test",
		"scenario": {"seed": 3, "sessions": 60, "prefixes": 40, "videos": 200},
		"axes": [{"name": "cold", "values": [false, true]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecHashStableAndContentSensitive: the hash is a pure function of
// spec content — identical specs agree, any override changes it.
func TestSpecHashStableAndContentSensitive(t *testing.T) {
	a, b := manifestSpec(t), manifestSpec(t)
	if a.Hash() != b.Hash() {
		t.Fatalf("identical specs hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	b.Scenario.Sessions = 61
	if a.Hash() == b.Hash() {
		t.Fatal("session-count override did not change the spec hash")
	}
	c := manifestSpec(t)
	c.Diagnosis = true
	if a.Hash() == c.Hash() {
		t.Fatal("diagnosis toggle did not change the spec hash")
	}
}

// TestManifestRoundTrip: BuildManifest covers every cell in grid order
// and the codec round-trips it exactly.
func TestManifestRoundTrip(t *testing.T) {
	sp := manifestSpec(t)
	cells, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	m := BuildManifest(sp, cells)
	if m.Spec != "manifest-test" || m.SpecHash != sp.Hash() {
		t.Fatalf("manifest provenance = %q/%q", m.Spec, m.SpecHash)
	}
	if len(m.Cells) != len(cells) {
		t.Fatalf("manifest cells = %d, want %d", len(m.Cells), len(cells))
	}
	if m.Baseline != cells[0].Name {
		t.Fatalf("default baseline = %q, want first cell %q", m.Baseline, cells[0].Name)
	}
	for i, c := range cells {
		mc := m.Cells[i]
		if mc.Name != c.Name || mc.File != c.FileName() || mc.Seed != c.Scenario.Seed {
			t.Fatalf("cell %d manifest entry %+v does not match cell %+v", i, mc, c)
		}
	}

	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.SpecHash != m.SpecHash || len(got.Cells) != len(m.Cells) || got.Cells[1].Name == "" {
		t.Fatalf("round-trip mangled the manifest: %+v", got)
	}
}

// TestRunCampaignWritesManifestAndRefusesForeignDir: -out directories
// carry a manifest; re-running the same spec is legal, a different spec
// is refused before simulating anything.
func TestRunCampaignWritesManifestAndRefusesForeignDir(t *testing.T) {
	sp := manifestSpec(t)
	dir := t.TempDir()
	if _, err := RunCampaign(sp, RunOptions{OutDir: dir}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifestFile(dir)
	if err != nil {
		t.Fatalf("sweep dir has no readable manifest: %v", err)
	}
	for _, c := range m.Cells {
		if _, err := os.Stat(filepath.Join(dir, c.File)); err != nil {
			t.Errorf("manifest names missing snapshot %s: %v", c.File, err)
		}
	}

	// Same spec again: allowed (idempotent re-run).
	if _, err := RunCampaign(sp, RunOptions{OutDir: dir}); err != nil {
		t.Fatalf("re-running the identical spec was refused: %v", err)
	}

	// Different spec content into the same directory: refused.
	other := manifestSpec(t)
	other.Scenario.Sessions = 61
	if _, err := RunCampaign(other, RunOptions{OutDir: dir}); err == nil {
		t.Fatal("RunCampaign overwrote a directory claimed by a different spec")
	} else if !strings.Contains(err.Error(), "refusing to overwrite") {
		t.Fatalf("unexpected refusal error: %v", err)
	}
}

// TestCampaignBaseline: Baseline() resolves the baseline cell and is
// nil-safe on an out-of-range index.
func TestCampaignBaseline(t *testing.T) {
	sp := manifestSpec(t)
	res, err := RunCampaign(sp, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Baseline()
	if b == nil || b.Cell.Name != res.Cells[res.BaselineIndex].Cell.Name {
		t.Fatalf("Baseline() = %v, want cell at index %d", b, res.BaselineIndex)
	}
	empty := &CampaignResult{BaselineIndex: -1}
	if empty.Baseline() != nil {
		t.Fatal("Baseline() on an empty result is not nil")
	}
}

// TestClaimOutDirSurvivesFailedWrite: a manifest write that fails part
// way, as in a sweep killed while writing it, leaves the previous
// manifest in place, so the directory stays claimable by its spec.
func TestClaimOutDirSurvivesFailedWrite(t *testing.T) {
	sp := manifestSpec(t)
	cells, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	m := BuildManifest(sp, cells)
	dir := t.TempDir()
	if err := claimOutDir(dir, m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestFileName)
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	killed := errors.New("killed")
	if err := atomicfile.Write(path, func(f *os.File) error {
		if _, err := f.Write(prev[:len(prev)/2]); err != nil {
			return err
		}
		return killed
	}); !errors.Is(err, killed) {
		t.Fatalf("interrupted write returned %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("after an interrupted write the manifest holds %.40q (%v), want the previous one", got, err)
	}
	if err := claimOutDir(dir, m); err != nil {
		t.Fatalf("re-claim after an interrupted write: %v", err)
	}
}
