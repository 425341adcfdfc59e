package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"vidperf/internal/diagnose"
)

func snapshotBytesOf(t *testing.T, sn *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sn); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// TestMergeSnapshotsAccumulates: folding two sub-campaign snapshots adds
// their counters and pools their sketch samples and sums — the aggregates
// a fold must carry exactly.
func TestMergeSnapshotsAccumulates(t *testing.T) {
	a := NewAccumulatorWith(Config{SketchK: 32})
	b := NewAccumulatorWith(Config{SketchK: 32})
	both := NewAccumulatorWith(Config{SketchK: 32})
	for id := uint64(1); id <= 10; id++ {
		rec := windowSession(id, float64(id*100), float64(400+id*20))
		if id <= 5 {
			a.ConsumeSession(rec, nil)
		} else {
			b.ConsumeSession(rec, nil)
		}
		both.ConsumeSession(rec, nil)
	}
	merged, err := MergeSnapshots(nil, a.snapshot())
	if err != nil {
		t.Fatalf("MergeSnapshots(nil, a): %v", err)
	}
	merged, err = MergeSnapshots(merged, b.snapshot())
	if err != nil {
		t.Fatalf("MergeSnapshots(merged, b): %v", err)
	}
	want := both.snapshot()
	for _, c := range []string{CounterSessions, CounterChunks} {
		if merged.Counter(c) != want.Counter(c) {
			t.Errorf("counter %s = %d, want %d", c, merged.Counter(c), want.Counter(c))
		}
	}
	if got, w := merged.Sketch(MetricStartupMS).N(), want.Sketch(MetricStartupMS).N(); got != w {
		t.Errorf("startup sketch N = %d, want %d", got, w)
	}
	if got, w := merged.Sketch(MetricStartupMS).Sum(), want.Sketch(MetricStartupMS).Sum(); got != w {
		t.Errorf("startup sketch sum = %g, want %g", got, w)
	}
}

// TestMergeSnapshotsNilDstClones: starting a fold from nil deep-copies
// the source — the fold's later mutations must never leak back into the
// window snapshot it started from.
func TestMergeSnapshotsNilDstClones(t *testing.T) {
	a := NewAccumulatorWith(Config{SketchK: 32})
	for id := uint64(1); id <= 6; id++ {
		a.ConsumeSession(windowSession(id, float64(id*50), 600), nil)
	}
	src := a.snapshot()
	before := snapshotBytesOf(t, src)

	fold, err := MergeSnapshots(nil, src)
	if err != nil {
		t.Fatalf("MergeSnapshots(nil, src): %v", err)
	}
	if !bytes.Equal(snapshotBytesOf(t, fold), before) {
		t.Fatal("fold started from nil is not byte-identical to its source")
	}

	b := NewAccumulatorWith(Config{SketchK: 32})
	for id := uint64(7); id <= 12; id++ {
		b.ConsumeSession(windowSession(id, float64(id*50), 900), nil)
	}
	if _, err := MergeSnapshots(fold, b.snapshot()); err != nil {
		t.Fatalf("MergeSnapshots(fold, b): %v", err)
	}
	if !bytes.Equal(snapshotBytesOf(t, src), before) {
		t.Fatal("merging into the fold mutated the source snapshot")
	}
}

// TestMergeSnapshotsRejectsMismatchedShapes: a sketch-k mismatch is a
// hard error, not silent corruption.
func TestMergeSnapshotsRejectsMismatchedShapes(t *testing.T) {
	a := NewAccumulatorWith(Config{SketchK: 32})
	a.ConsumeSession(windowSession(1, 100, 500), nil)
	b := NewAccumulatorWith(Config{SketchK: 64})
	b.ConsumeSession(windowSession(2, 200, 500), nil)
	if _, err := MergeSnapshots(a.snapshot(), b.snapshot()); err == nil {
		t.Fatal("merging sketch k=64 into k=32 did not error")
	}
}

// TestWithoutWindowsMatchesUnwindowedRun pins that the output-only
// families only observe: with the family's keys stripped, a run's
// snapshot is byte-identical to the snapshot the same record stream
// produces without the family. For windows this is the identity serve's
// cumulative fold stands on (WithoutWindows); diagnosis must hold it
// too, alone and crossed with windows.
func TestWithoutWindowsMatchesUnwindowedRun(t *testing.T) {
	diagMark := "_" + DiagDim + "="
	withoutDiag := func(s *Snapshot) *Snapshot {
		out := *s
		out.Sketches = map[string]*QuantileSketch{}
		out.Counters = map[string]uint64{}
		for name, sk := range s.Sketches {
			if !strings.Contains(name, diagMark) {
				out.Sketches[name] = sk
			}
		}
		for name, n := range s.Counters {
			if !strings.Contains(name, diagMark) {
				out.Counters[name] = n
			}
		}
		return &out
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		strip func(*Snapshot) *Snapshot
		marks []string
	}{
		{"windows", Config{Windows: testWindows()}, WithoutWindows, []string{windowKeyMark}},
		{"diagnosis", Config{Diagnose: &diagnose.Config{}}, withoutDiag, []string{diagMark}},
		{"windows+diagnosis", Config{Windows: testWindows(), Diagnose: &diagnose.Config{}},
			func(s *Snapshot) *Snapshot { return withoutDiag(WithoutWindows(s)) },
			[]string{windowKeyMark, diagMark}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.SketchK = 32
			with := NewAccumulatorWith(tc.cfg)
			plain := NewAccumulatorWith(Config{SketchK: 32})
			_, chunks := foldSession()
			for id := uint64(1); id <= 30; id++ {
				rec := windowSession(id, float64(id*90), float64(300+id*15))
				rec.RebufferRate = float64(id%4) * 0.05
				cs := chunks[:id%uint64(len(chunks))]
				with.ConsumeSession(rec, cs)
				plain.ConsumeSession(rec, cs)
			}
			sn := with.snapshot()
			for _, mark := range tc.marks {
				if !hasKeyWith(sn, mark) {
					t.Fatalf("run carries no %q key", mark)
				}
			}
			stripped := tc.strip(sn)
			if !bytes.Equal(snapshotBytesOf(t, stripped), snapshotBytesOf(t, plain.snapshot())) {
				t.Fatal("stripped snapshot differs from the run without the family")
			}
			for _, mark := range tc.marks {
				if hasKeyWith(stripped, mark) {
					t.Errorf("a %q key survived stripping", mark)
				}
			}
		})
	}
}

// hasKeyWith reports whether any sketch or counter key contains mark.
func hasKeyWith(s *Snapshot, mark string) bool {
	for name := range s.Sketches {
		if strings.Contains(name, mark) {
			return true
		}
	}
	for name := range s.Counters {
		if strings.Contains(name, mark) {
			return true
		}
	}
	return false
}

// TestSnapshotVirtualMSRoundTrip: the serve-mode stamp survives the wire
// and stays omitted for batch snapshots (zero value).
func TestSnapshotVirtualMSRoundTrip(t *testing.T) {
	a := NewAccumulatorWith(Config{SketchK: 32})
	a.ConsumeSession(windowSession(1, 100, 500), nil)
	sn := a.snapshot()
	if b := snapshotBytesOf(t, sn); bytes.Contains(b, []byte("virtual_ms")) {
		t.Fatal("batch snapshot carries virtual_ms")
	}
	sn.VirtualMS = 3600000
	rt, err := ReadSnapshot(bytes.NewReader(snapshotBytesOf(t, sn)))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if rt.VirtualMS != 3600000 {
		t.Fatalf("VirtualMS round-tripped to %g", rt.VirtualMS)
	}
}
