package diagnose_test

import (
	"bytes"
	"testing"

	"vidperf/internal/diagnose"
	"vidperf/internal/session"
	"vidperf/internal/telemetry"
	"vidperf/internal/workload"
)

// TestDiagnosisByteIdenticalAcrossParallelism runs the same diagnosed
// campaign at -parallel 1 and 8 and requires byte-identical snapshots:
// classification happens inside each PoP shard's accumulator, so the
// per-label counters and sketches must obey the same determinism rule as
// every other streamed aggregate.
func TestDiagnosisByteIdenticalAcrossParallelism(t *testing.T) {
	run := func(parallel int) []byte {
		sc := workload.Scenario{
			Seed: 7, NumSessions: 800, NumPrefixes: 200, Parallelism: parallel,
		}
		res, err := session.Execute(sc, session.Options{
			Telemetry: true, SketchK: 64, Diagnose: true,
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		sn := res.Snapshot
		var buf bytes.Buffer
		if err := telemetry.WriteSnapshot(&buf, sn); err != nil {
			t.Fatalf("parallel=%d: write: %v", parallel, err)
		}
		return buf.Bytes()
	}

	seq, par := run(1), run(8)
	if !bytes.Equal(seq, par) {
		t.Fatal("diagnosis-enabled snapshots differ between -parallel 1 and 8")
	}

	// And the labels actually cover the campaign: every session carries
	// exactly one label.
	sn, err := telemetry.ReadSnapshot(bytes.NewReader(seq))
	if err != nil {
		t.Fatal(err)
	}
	var labelled uint64
	for _, l := range diagnose.Labels() {
		labelled += sn.Counter(telemetry.DiagSessionsKey(l))
	}
	if sessions := sn.Counter(telemetry.CounterSessions); labelled != sessions {
		t.Fatalf("label counts sum to %d, want the session count %d", labelled, sessions)
	}
}
