package core_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"vidperf/internal/core"
	"vidperf/internal/experiment"
	"vidperf/internal/session"
)

// TestJSONLMatchesReferenceOnSimulatedTraces runs small versions of the
// example specs for each scenario family (paper baseline, live, proxied
// cohorts, a timeline) and checks the trace codec against the reference
// encoding/json codec on what the simulator really emits: the same bytes
// written, the same dataset read back.
func TestJSONLMatchesReferenceOnSimulatedTraces(t *testing.T) {
	for _, name := range []string{"paper-baseline", "live-steady", "proxied-enterprise", "pop-outage"} {
		t.Run(name, func(t *testing.T) {
			sp, err := experiment.LoadFile(filepath.Join("..", "..", "examples", "specs", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			cells, err := sp.Expand()
			if err != nil {
				t.Fatal(err)
			}
			sc := cells[0].Scenario
			sc.NumSessions = 300
			res, err := session.Execute(sc, session.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var got, want bytes.Buffer
			if err := core.WriteJSONL(&got, res.Dataset); err != nil {
				t.Fatalf("WriteJSONL: %v", err)
			}
			if err := core.RefWriteJSONL(&want, res.Dataset); err != nil {
				t.Fatalf("reference write: %v", err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("trace differs from the reference encoding (%d vs %d bytes)", got.Len(), want.Len())
			}
			read, err := core.ReadJSONL(&got)
			if err != nil {
				t.Fatalf("ReadJSONL: %v", err)
			}
			if err := core.EqualDatasets(read, res.Dataset); err != nil {
				t.Fatalf("read back differently: %v", err)
			}
		})
	}
}
